/// \file
/// End-to-end solving over the facade (the paper's Table II protocol).
///
/// A `Problem` is either handed straight to a back-end SAT solver
/// ("w/o Bosphorus") or first run through the `Engine` learning loop,
/// whose processed CNF -- original variables plus every learnt fact -- is
/// then solved; the reported time includes the engine's own runtime
/// ("w Bosphorus"). An ANF problem reaches the back end as plain CNF
/// converted under `engine.conv` in both arms. SAT models are verified
/// against the *original* input.
///
/// Thread safety: solve() builds all its state per call; concurrent
/// solve() calls on distinct (or shared, const) Problems are safe.
#pragma once

#include "bosphorus/engine.h"
#include "bosphorus/problem.h"
#include "bosphorus/sat_backend.h"
#include "bosphorus/status.h"
#include "sat/solve_cnf.h"

namespace bosphorus {

/// Parameters of one end-to-end solve() call.
struct SolveConfig {
    EngineConfig engine;        ///< loop parameters (section IV defaults)
    bool preprocess = false;    ///< run the Engine first (the "w" axis)
    /// Back-end solver: any spec the bosphorus/sat_backend.h registry
    /// resolves -- "minisat", "lingeling", "cms" (the paper's Table II
    /// axis), "dimacs-exec:<cmd>" for an external binary, or a
    /// user-registered backend.
    sat::SolverSpec solver;
    double timeout_s = 5000.0;  ///< total per-instance budget
    double engine_budget_s = 1000.0;  ///< the Engine's share of the budget
};

/// What one end-to-end solve() call produced.
struct SolveOutcome {
    sat::Result result = sat::Result::kUnknown;  ///< final verdict
    double seconds = 0.0;         ///< total wall-clock (incl. the engine)
    double engine_seconds = 0.0;  ///< time spent in the learning loop
    bool solved_in_loop = false;  ///< decided by the engine itself
    bool model_verified = false;  ///< SAT model checked against the input
    /// kSat: the verified assignment of the input's variables; else empty.
    std::vector<bool> model;
    sat::Solver::Stats solver_stats;  ///< back-end solver counters
};

/// Solve an ANF or CNF problem. Errors on malformed input (an empty
/// Problem is fine: it is trivially SAT) and on an `engine.conv` that
/// fails Anf2CnfConfig::check(), with either value of `preprocess`.
Result<SolveOutcome> solve(const Problem& problem,
                           const SolveConfig& cfg = {});

/// PAR-2 score of a set of outcomes: sum of runtimes for solved instances
/// plus twice the timeout for unsolved ones (lower is better).
double par2_score(const std::vector<SolveOutcome>& outcomes,
                  double timeout_s);

}  // namespace bosphorus
