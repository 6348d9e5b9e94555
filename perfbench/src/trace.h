// Per-layer timing from outside the library, through its public extension
// points only: a Technique decorator installed with clear_techniques() +
// add_technique(), a SolverBackend decorator registered in the
// BackendRegistry, and before/after deltas of the process-global counters.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "bosphorus/bosphorus.h"

namespace perfbench {

/// What the decorator saw of one technique across a run.
struct StepTally {
    double step_s = 0.0;  ///< wall time inside step()
    double bind_s = 0.0;  ///< wall time inside bind_base()
    uint64_t steps = 0;   ///< step() calls
    uint64_t seen = 0;    ///< facts offered
    uint64_t fresh = 0;   ///< facts that changed the system
};

/// Tallies keyed by Technique::name().
using LoopTallies = std::map<std::string, StepTally>;

/// Wrap `inner` so that its steps and binds are charged to
/// (*tallies)[inner->name()]. Every other call is forwarded unchanged.
std::unique_ptr<bosphorus::Technique> make_timed_technique(
    std::unique_ptr<bosphorus::Technique> inner, LoopTallies* tallies);

/// Replace the registry of `target` (an Engine or a Session) with the
/// default techniques for `cfg`, each wrapped by make_timed_technique.
template <class Target>
void install_timed_techniques(Target& target,
                              const bosphorus::EngineConfig& cfg,
                              LoopTallies* tallies) {
    target.clear_techniques();
    for (auto& t : bosphorus::make_default_techniques(cfg))
        target.add_technique(make_timed_technique(std::move(t), tallies));
}

/// What the timing back end saw, summed over every instance it created.
struct BackendTally {
    uint64_t calls = 0;         ///< solve() calls
    double load_s = 0.0;        ///< ensure_vars / add_clause / add_xor time
    double solve_s = 0.0;       ///< solve() time
    uint64_t conflicts = 0;     ///< solver conflicts during those calls
    uint64_t propagations = 0;  ///< solver propagations during those calls
};

/// The process-wide tally of the "timed" back end. Single-threaded use.
BackendTally& backend_tally();

/// Register (once) the "timed" back end and return the spec that wraps
/// `inner`: "timed:<inner>".
std::string timed_backend_spec(const std::string& inner);

/// A snapshot of the process-global counters the library keeps; the
/// benchmark only ever reads differences of two snapshots.
struct GlobalCounters {
    uint64_t vivify_passes = 0;
    uint64_t vivified_clauses = 0;
    uint64_t db_reductions = 0;
    uint64_t reconf_decisions = 0;
    uint64_t store_entries = 0;
    uint64_t memo_hits = 0;
    uint64_t memo_misses = 0;

    static GlobalCounters now();
    GlobalCounters& operator+=(const GlobalCounters& o);
    GlobalCounters operator-(const GlobalCounters& o) const;
};

}  // namespace perfbench
