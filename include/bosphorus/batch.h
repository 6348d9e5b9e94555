/// \file
/// The concurrent batch-solving runtime of the public API.
///
/// Two entry points scale the single-instance Engine of bosphorus/engine.h
/// to many cores:
///
///  - `BatchEngine::solve_all` -- high-throughput many-instance workloads.
///    Every Problem in the batch is run through its own Engine on a
///    work-stealing thread pool. Results are **bit-identical to a
///    sequential loop** for a fixed EngineConfig::seed: each instance gets
///    a private Engine and a private RNG seeded from the config, so
///    scheduling order cannot leak into the outcome. One caveat: the
///    Engine's time budget (EngineConfig::time_budget_s) is wall-clock,
///    so an instance that runs *near its budget* can time out under an
///    oversubscribed pool where it sequentially would not -- the
///    guarantee is exact for runs that finish within their budget either
///    way (give time-critical batches headroom, or a generous budget).
///
///  - `solve_portfolio` -- one hard instance,
///    K diverse technique configurations racing in parallel (XL-heavy,
///    ElimLin-heavy, Groebner on/off -- see `default_portfolio`). The
///    first configuration to reach a decisive verdict (SAT/UNSAT) cancels
///    the others through the cancellation token the Engine threads into
///    every technique iteration, so losers stop within one XL/ElimLin
///    iteration rather than running to completion.
///
/// Thread-safety summary: configure a `BatchEngine` (constructor,
/// `set_cancellation_token`) *before* sharing it; once configured, any
/// number of threads may call the const `solve_all` concurrently -- each
/// call snapshots the config/token and owns its pool and per-worker
/// Engines. `Problem` objects are only read. User callbacks
/// (`BatchCallback`) are invoked from worker threads, serialised by an
/// internal mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bosphorus/engine.h"
#include "bosphorus/problem.h"
#include "bosphorus/sat_backend.h"
#include "bosphorus/status.h"
#include "runtime/cancellation.h"

namespace bosphorus {

/// One (variable, value) assumption of a sweep candidate.
using Assumption = std::pair<anf::Var, bool>;
/// One sweep candidate: the assumptions a worker applies inside a fresh
/// Session scope before solving.
using AssumptionSet = std::vector<Assumption>;

/// The assumption a signed 1-based DIMACS-style literal names: 3 is
/// (x3 = 1), i.e. (2, true), and -3 is (2, false). kInvalidArgument for 0
/// and for a variable past anf::Var's range; the message names the
/// variable as sent ("x4294967297"). INT64_MIN is handled, not negated.
Result<Assumption> assumption_from_literal(int64_t lit);

/// One configuration racing in a portfolio.
struct PortfolioEntry {
    /// Label reported back in PortfolioOutcome ("xl-heavy", ...).
    std::string name;
    /// Full loop parameters this entry runs with.
    EngineConfig config;
};

/// What one portfolio entry did before finishing or being cancelled.
struct PortfolioOutcome {
    std::string name;          ///< PortfolioEntry::name
    sat::Result verdict = sat::Result::kUnknown;  ///< this entry's verdict
    bool interrupted = false;  ///< cancelled because another entry won
    bool timed_out = false;    ///< hit its own EngineConfig time budget
    bool errored = false;      ///< run() returned a non-OK Status
    double seconds = 0.0;      ///< wall-clock of this entry's run
    size_t iterations = 0;     ///< outer-loop iterations completed
    size_t facts = 0;          ///< fresh facts this entry learnt
    /// Cooperative exchange (EngineConfig::cooperative): foreign facts
    /// this entry imported from / own facts it published to the shared
    /// pool. 0 for isolated entries.
    size_t facts_imported = 0;
    size_t facts_published = 0;
};

/// Result of a portfolio race.
struct PortfolioReport {
    /// Index into the entries vector of the winning configuration: the
    /// first to return a decisive verdict, else (no decision anywhere)
    /// the entry that learnt the most facts, ties broken by lowest index.
    size_t winner = 0;
    std::string winner_name;  ///< entries[winner].name
    /// The winning entry's full Report (verdict, solution, processed ANF,
    /// tallies).
    Report report;
    /// Per-entry summaries, in entry order (losers included).
    std::vector<PortfolioOutcome> outcomes;
    double seconds = 0.0;  ///< wall-clock of the whole race
    /// Cooperative races only: distinct facts that entered the shared
    /// pool, and publishes suppressed as duplicates (0 when the race ran
    /// isolated). See src/runtime/fact_exchange.h.
    uint64_t facts_shared = 0;
    uint64_t facts_suppressed = 0;
    /// True iff the winner decided the instance (SAT or UNSAT).
    bool decided() const {
        return report.verdict != sat::Result::kUnknown;
    }
};

/// The standard four-entry portfolio over a base configuration:
///   "balanced"      -- the base config as given (Groebner off);
///   "xl-heavy"      -- XL at degree 2 with a larger expansion cap,
///                      ElimLin off;
///   "elimlin-heavy" -- XL off, ElimLin given twice the iterations;
///   "groebner"      -- the base config with the Groebner step enabled.
/// Entries get distinct derived seeds so their subsampling decorrelates.
std::vector<PortfolioEntry> default_portfolio(const EngineConfig& base);

/// A *heterogeneous* portfolio: one entry per SAT back end, all running
/// the same loop configuration with only EngineConfig::sat_backend
/// swapped -- racing solvers, not engine knobs. Feed the result to
/// solve_portfolio as usual; the first decisive finisher cancels the
/// losers *inside* their running SAT step (the cancellation token
/// reaches the back end through SolverBackend's terminate/interrupt
/// hook, so even a long external-process solve stops promptly). Entry
/// names are the spec strings; seeds stay identical so entries differ in
/// nothing but the back end. An empty spec ("") names the built-in
/// native in-loop solver and is allowed as an entry.
std::vector<PortfolioEntry> backend_portfolio(
    const EngineConfig& base, const std::vector<sat::SolverSpec>& backends);

/// backend_portfolio over the three built-in back ends ("minisat",
/// "lingeling", "cms") -- the paper's Table II axis as a race.
std::vector<PortfolioEntry> default_backend_portfolio(
    const EngineConfig& base);

/// Race `entries` on `problem` with `n_threads` workers (0 = hardware
/// concurrency, capped at the entry count). The first decisive finisher
/// cancels the rest; `cancel` additionally aborts the whole race from
/// outside. Errors only on malformed input or an empty entry list.
Result<PortfolioReport> solve_portfolio(
    const Problem& problem, const std::vector<PortfolioEntry>& entries,
    unsigned n_threads = 0, runtime::CancellationToken cancel = {});

/// Throughput-oriented batch front-end: one EngineConfig, many Problems,
/// a work-stealing pool. See the file comment for the determinism
/// guarantee.
class BatchEngine {
public:
    /// Configuration applied to every instance in the batch. Also fixes
    /// the RNG seed each per-instance Engine starts from.
    explicit BatchEngine(EngineConfig cfg);
    /// A batch over the paper's default parameters (EngineConfig{}).
    BatchEngine() : BatchEngine(EngineConfig{}) {}

    /// Observer invoked as each instance finishes: (index into the input
    /// vector, that instance's result). Called from worker threads, but
    /// never concurrently (internally serialised); it must not block for
    /// long or throughput suffers. Exceptions it throws are swallowed
    /// (the result is already in its slot).
    using BatchCallback =
        std::function<void(size_t index, const Result<Report>& result)>;

    /// Solve every problem in `problems` on `n_threads` workers (0 =
    /// hardware concurrency). Returns one Result per problem, in input
    /// order -- identical to calling Engine(cfg).run(p) on each problem
    /// sequentially, independent of thread count and scheduling.
    /// Per-instance failures (malformed CNF input, ...) land in the
    /// corresponding slot; they do not abort the batch.
    std::vector<Result<Report>> solve_all(
        const std::vector<Problem>& problems, unsigned n_threads = 0,
        const BatchCallback& on_result = nullptr) const;

    /// Sweep many assumption sets over ONE shared base problem -- the
    /// incremental counterpart of solve_all for guess-and-determine and
    /// key-recovery workloads. The candidate list is split into
    /// contiguous blocks, one per worker; each worker materialises the
    /// base into a private bosphorus/session.h Session *once* and then,
    /// per candidate, does push() / assume each (var, value) / solve() /
    /// pop() -- so the base simplification cost is paid `n_threads`
    /// times instead of `candidates.size()` times, and every solve after
    /// a worker's first is warm.
    ///
    /// Results are returned in candidate order. Verdicts and (for
    /// instances with a unique model under their assumptions) solutions
    /// match a cold per-candidate Engine::run loop; Report counters
    /// (iterations, fact tallies) reflect the warm solve that actually
    /// ran. The block partition depends only on (candidates.size(),
    /// n_threads), never on scheduling, so a fixed thread count gives
    /// bit-identical results run to run.
    ///
    /// An out-of-range assumption variable fails that candidate's slot
    /// with kInvalidArgument; it does not abort the sweep. Cancellation
    /// behaves as in solve_all.
    std::vector<Result<Report>> solve_all_incremental(
        const Problem& base, const std::vector<AssumptionSet>& candidates,
        unsigned n_threads = 0, const BatchCallback& on_result = nullptr) const;

    /// Attach a cancellation token aborting the whole batch: instances
    /// not yet started return Status kInterrupted, instances in flight
    /// stop within one technique iteration and return their partial
    /// Report with `interrupted = true`.
    BatchEngine& set_cancellation_token(runtime::CancellationToken token);

    /// The worker count solve_all actually uses for `n_instances` and a
    /// requested `n_threads` (0 = hardware concurrency): never more
    /// workers than instances, and never more than
    /// `std::thread::hardware_concurrency()` -- engine work is
    /// compute-bound, so oversubscription only costs (requests beyond the
    /// core count are clamped, not honoured). Single source of the sizing
    /// policy, shared with solve_portfolio.
    static unsigned threads_for(size_t n_instances, unsigned n_threads);

    /// The per-instance configuration this batch runs with.
    const EngineConfig& config() const { return cfg_; }

private:
    EngineConfig cfg_;
    runtime::CancellationToken cancel_;
};

}  // namespace bosphorus
