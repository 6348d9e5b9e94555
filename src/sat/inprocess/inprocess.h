// In-processing engine for the native CDCL core -- configuration and the
// process-global observability counters.
//
// The subsystem has three legs, mirroring CryptoMiniSat's in-processing
// stack:
//  * Vivifier (vivifier.h): strengthens/shrinks clauses at restart
//    boundaries under a tick budget proportional to the search effort
//    since the previous pass (clausevivifier.cpp; Kissat/CaDiCaL ticks).
//  * ClauseDbManager (clause_db.h): a three-tier core/mid/local learnt-DB
//    policy with glue protection, survival promotion and a *persistent*
//    cap, so clause management carries across warm Session::solve calls
//    instead of resetting per call (reducedb.cpp).
//  * profiles.h/features.h: ~4 named configurations picked per solve by a
//    hand-rolled feature rule (the scripts/reconf.py shape, no ML).
//
// Everything is deterministic: given (formula, config, call sequence) the
// vivification passes, reductions and reconfiguration decisions replay
// bit-for-bit, which keeps the warm-vs-cold differential gates of
// bench_incremental meaningful.
#pragma once

#include <atomic>
#include <cstdint>

#include "sat/inprocess/profiles.h"

namespace bosphorus::sat::inprocess {

/// All in-processing knobs, embedded in Solver::Config. The defaults are
/// the kBalanced profile's values; named profiles override the marked
/// fields per solve call.
struct InprocessConfig {
    /// Master switch. Off reproduces the legacy solver numerically:
    /// single-tier activity/LBD reduce_db with a per-call cap, no
    /// vivification, no reconfiguration.
    bool enabled = true;

    /// Which configuration to run (see profiles.h). kAuto re-evaluates
    /// the feature rule at every solve call (and once more after the
    /// first learnt-LBD window); kFixed pins the explicit Config knobs.
    ProfileId profile = ProfileId::kAuto;

    // ---- vivification -----------------------------------------------------
    bool vivify = true;  ///< run the Vivifier at restart boundaries
    /// Share of the search's own effort a vivification pass may spend:
    /// each pass gets this many ticks (watch-list entries visited by
    /// Solver::propagate) per search tick since the previous pass, less
    /// whatever that pass overshot its own budget. In-processing thus
    /// never costs more than this fraction of the search it serves.
    double vivify_effort = 0.10;
    /// Run a pass every Nth restart (and once at the start of each warm
    /// re-solve; never at the start of a first/cold call).
    /// Profile-overridable.
    uint32_t vivify_restart_interval = 6;
    /// Clauses longer than this are skipped (budget goes further on the
    /// short clauses propagation actually visits).
    uint32_t vivify_max_clause_size = 64;
    bool vivify_irredundant = true;  ///< also strengthen problem clauses

    // ---- tiered learnt DB (profile-overridable) --------------------------
    uint32_t core_lbd_cut = 3;  ///< LBD <= this: core, never deleted
    uint32_t mid_lbd_cut = 6;   ///< LBD <= this: mid, survival-protected
    /// Reductions a mid clause may sit unused before demotion to local.
    uint32_t mid_idle_limit = 2;
    /// Floor of the local-tier cap (the persistent reduce trigger).
    size_t local_cap_min = 1000;
    /// Local-tier cap growth per reduction (persists across solve calls).
    double local_cap_growth = 1.1;

    /// Conflicts of the opening LBD window feeding
    /// InstanceFeatures::avg_first_window_lbd.
    uint32_t window_lbd_conflicts = 100;
};

/// Process-global in-processing counters, read through by bosphorusd
/// METRICS (the resilience_counters() pattern). The tier_* entries are
/// live gauges summed across all live solvers: each ClauseDbManager
/// reports deltas at reduce boundaries and unregisters its last report on
/// destruction.
struct InprocessCounters {
    std::atomic<uint64_t> vivified_literals{0};  ///< literals removed
    std::atomic<uint64_t> vivified_clauses{0};   ///< clauses shrunk
    std::atomic<uint64_t> vivify_deleted{0};     ///< clauses proved satisfied
    std::atomic<uint64_t> vivify_passes{0};      ///< vivification sweeps run
    /// Effort in ticks (watch-list entries visited): by vivification
    /// (added after each pass) and by the search (added at the end of
    /// each solve call and before each pass). vivify_effort bounds their
    /// ratio.
    std::atomic<uint64_t> vivify_ticks{0};
    std::atomic<uint64_t> search_ticks{0};
    std::atomic<uint64_t> reconf_decisions{0};   ///< auto profile switches
    std::atomic<uint64_t> db_reductions{0};      ///< tiered reduce sweeps
    std::atomic<int64_t> tier_core{0};   ///< live core-tier clauses
    std::atomic<int64_t> tier_mid{0};    ///< live mid-tier clauses
    std::atomic<int64_t> tier_local{0};  ///< live local-tier clauses
};

/// The process-global instance (never destroyed; safe from any thread).
InprocessCounters& counters();

}  // namespace bosphorus::sat::inprocess
