// Legacy end-to-end solving pipeline used by the Table II bench harness.
//
// Mirrors the paper's experimental setup: an instance (ANF or CNF) is either
// (a) converted to CNF and handed directly to a back-end SAT solver
//     ("w/o Bosphorus"), or
// (b) first run through the Bosphorus fact-learning loop, whose processed
//     CNF (including learnt facts) is then handed to the back-end solver;
//     the reported time includes Bosphorus's own runtime ("w Bosphorus").
//
// Both entry points are now thin adapters over the facade's
// `bosphorus::solve` (include/bosphorus/solve.h); new code should call that
// directly with a `Problem`.
#pragma once

#include <cstddef>
#include <vector>

#include "bosphorus/solve.h"
#include "core/bosphorus.h"
#include "sat/solve_cnf.h"

namespace bosphorus::core {

struct PipelineConfig {
    Options bosphorus;             ///< loop parameters (section IV defaults)
    /// Back-end solver spec (any bosphorus/sat_backend.h registry name);
    /// matches the CLI's documented default (`cms`).
    sat::SolverSpec solver;
    bool use_bosphorus = false;    ///< the w/o vs w axis of Table II
    double timeout_s = 5000.0;     ///< total per-instance budget
    double bosphorus_budget_s = 1000.0;  ///< Bosphorus's share of the budget
};

struct PipelineOutcome {
    sat::Result result = sat::Result::kUnknown;
    double seconds = 0.0;            ///< total wall-clock (incl. Bosphorus)
    double bosphorus_seconds = 0.0;  ///< time spent in the learning loop
    bool solved_in_loop = false;     ///< decided by Bosphorus itself
    bool model_verified = false;     ///< SAT models checked against input
    sat::Solver::Stats solver_stats;
};

/// PipelineConfig -> the facade's SolveConfig (and outcome back).
::bosphorus::SolveConfig to_solve_config(const PipelineConfig& cfg);
PipelineOutcome to_pipeline_outcome(const ::bosphorus::SolveOutcome& out);

/// Solve an ANF instance per the Table II protocol.
PipelineOutcome solve_anf_instance(const std::vector<anf::Polynomial>& polys,
                                   size_t num_vars, const PipelineConfig& cfg);

/// Solve a CNF instance per the Table II protocol (SAT-2017 rows).
PipelineOutcome solve_cnf_instance(const sat::Cnf& cnf,
                                   const PipelineConfig& cfg);

/// PAR-2 score of a set of outcomes: sum of runtimes for solved instances
/// plus twice the timeout for unsolved ones (lower is better).
double par2_score(const std::vector<PipelineOutcome>& outcomes,
                  double timeout_s);

}  // namespace bosphorus::core
