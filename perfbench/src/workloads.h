// The four workloads and what they share: the command-line arguments,
// the trace-equivalence fingerprint, the per-layer totals of a traced
// run, and the generated inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bosphorus/bosphorus.h"
#include "crypto/aes_small.h"
#include "metrics.h"
#include "reference.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// What a traced run of a query must reproduce from the untraced run.
struct Fingerprint {
    bosphorus::sat::Result verdict = bosphorus::sat::Result::kUnknown;
    std::vector<bool> solution;
    size_t iterations = 0;
    std::vector<std::pair<size_t, size_t>> tallies;  ///< (steps, facts)

    bool operator==(const Fingerprint&) const = default;
};

/// Verdict, solution, iterations and per-technique tallies of `r`.
Fingerprint fingerprint(const bosphorus::Report& r);

/// Per-layer sums over the traced queries of one run. Every workload
/// reports every per-layer metric; a layer a workload does not reach
/// reads 0.
struct LayerTotals {
    size_t queries = 0;         ///< traced queries
    LoopTallies loop;           ///< technique decorators
    double loop_report_s = 0;   ///< sum of Report::seconds
    uint64_t iterations = 0;    ///< sum of Report::iterations
    size_t decided_in_loop = 0; ///< queries the loop itself decided
    /// Tallies taken from Report::techniques where the techniques cannot
    /// be wrapped (service jobs): (steps, facts) per technique name.
    std::vector<std::pair<std::string, std::pair<size_t, size_t>>> reported;

    GlobalCounters solver;       ///< in-processing counter deltas
    GlobalCounters store;        ///< store deltas over `store_queries`
    size_t store_queries = 0;    ///< queries the store deltas cover
    BackendTally backend;        ///< timing back-end deltas

    double construct_s = 0;      ///< session construction (sweep)
    double push_pop_s = 0;       ///< push + assume + pop, binds excluded
    double rss_growth_mib = 0;   ///< RSS at last call minus RSS at call 1

    std::vector<double> queue_wait_s, run_s;  ///< service jobs
    uint64_t rejected = 0, expired = 0;

    double traced_wall_s = 0;    ///< wall time of the traced queries
    double untraced_wall_s = 0;  ///< wall time of the same queries untraced
    double accounted_s = 0;      ///< layer times summed per query
};

/// Append every per-layer metric, normalised per traced query.
void add_per_layer(const LayerTotals& t, RunOutput* out);

/// One query of an untraced reference run.
struct PlainQuery {
    unsigned group = 0;  ///< e.g. the client that submitted it
    bool ok = false;
    double wall_s = 0;
    Fingerprint fp;
};

/// Run `child` in a forked copy of this process and return the queries
/// it produced, in order; false if the copy failed. The untraced
/// reference of the sr-sweep and service-mix traced runs is made this
/// way, so that it starts from exactly the process state the traced run
/// starts from (the monomial store is process-global and append-only).
/// Call it only while the process has a single thread.
bool run_untraced_copy(const std::function<std::vector<PlainQuery>()>& child,
                       std::vector<PlainQuery>* queries);

/// Record a trace-equivalence mismatch of query `i` as a correctness
/// failure.
void check_same(const Fingerprint& untraced, const Fingerprint& traced,
                size_t i, RunOutput* out);

/// True iff `solution` zeroes every polynomial of `polys`.
bool satisfies(const std::vector<bosphorus::anf::Polynomial>& polys,
               const std::vector<bool>& solution);

/// Time the set-up `fn`: kSetupReps calls, each followed by a few
/// reference samples, so that setup_s is scaled by the host speed of its
/// own few hundred milliseconds rather than of the whole run.
SetupTime time_setup(ReferenceClock& ref, const std::function<void()>& fn);
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 11;

// ---- generated inputs ------------------------------------------------------

/// An SR(2,2,2,4) key-recovery instance whose key is the only one that
/// maps its plaintext to its ciphertext (checked by exhaustive
/// encryption), so exactly one key candidate is satisfiable.
bosphorus::crypto::SmallScaleAes::Instance unique_key_sr(bosphorus::Rng& rng);

/// SR(2,2,2,4): 2 rounds, a 2x2 state of 4-bit words.
constexpr bosphorus::crypto::SmallScaleAes::Params kSrParams{2, 2, 2, 4};
/// The master key is the first block of variables.
constexpr size_t kKeyBits = kSrParams.rows * kSrParams.cols * kSrParams.e;
/// Key bits each sweep candidate assumes (the first ones of the key).
/// With 8 a warm Session alternates fast and slow calls strictly, so the
/// median call lands between two modes (its spread over ten seeds was
/// 0.23); with 10 one call in four is slow and the median is steady.
constexpr unsigned kSweepBits = 10;

/// The planted prefix of a sweep sits among its first kPlantedWithin
/// candidates, so that every run, however short, tests it.
constexpr size_t kPlantedWithin = 8;

/// A key sweep over one unique-key SR instance: all 2^kSweepBits key
/// prefixes in a seed-shuffled order, with the planted prefix moved to
/// position seed % kPlantedWithin.
struct KeySweep {
    bosphorus::crypto::SmallScaleAes::Instance inst;
    std::vector<uint32_t> order;
    uint32_t planted = 0;

    explicit KeySweep(uint64_t seed);
    /// The assumption set of candidate `i` of the order.
    bosphorus::AssumptionSet assumptions(size_t i) const;
    /// Judge the answer to candidate `i`: SAT exactly on the planted
    /// prefix, with a model that satisfies the ANF and is the planted
    /// key. Wrong answers are recorded in `out`; returns true iff the
    /// answer is a correct verdict.
    bool judge(size_t i, const Fingerprint& fp, RunOutput* out) const;
};

/// Sweeps per run. How fast a warm sweep runs depends on its instance
/// (over five seeds, one sweep's p93 call time ranged from 0.16 s to
/// 0.25 s on a 4-vCPU Xeon VM), so a run sweeps several instances
/// round-robin -- query q is candidate q / kSweepInstances of sweep
/// q % kSweepInstances -- and a run's figures do not hang on one.
constexpr size_t kSweepInstances = 4;

/// The kSweepInstances sweeps of a run with seed `seed`.
std::vector<KeySweep> key_sweeps(uint64_t seed);

/// The loop parameters of every workload: the Table II benches' laptop
/// scaling (M = 20, at most 16 iterations) with budget `limit_s`.
bosphorus::EngineConfig engine_config(double limit_s);

// ---- the workloads ---------------------------------------------------------

void run_cold(const Args& args, RunOutput* out);
void run_sweep(const Args& args, RunOutput* out);
void run_service(const Args& args, RunOutput* out);

}  // namespace perfbench
