// CNF-level helpers shared by the SAT back ends: the outcome of one
// CNF solve (see solve_cnf_with in include/bosphorus/sat_backend.h), the
// CryptoMiniSat-style XOR recovery the "cms" backend runs, the one
// XOR-to-clauses expansion, and model verification.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/solver.h"
#include "sat/types.h"

namespace bosphorus::sat {

/// The back end used when none is specified, everywhere (CLI --solver
/// default, SolveConfig, PipelineConfig): the CMS-like registry backend.
inline constexpr const char* kDefaultSolverName = "cms";

/// What one CNF-level solve produced. (Named CnfSolveOutcome -- not
/// SolveOutcome -- so the public bosphorus::SolveOutcome of
/// include/bosphorus/solve.h is never shadowed by this internal type.)
struct CnfSolveOutcome {
    Result result = Result::kUnknown;
    std::vector<LBool> model;  // valid iff result == kSat
    Solver::Stats stats;
    double seconds = 0.0;
};

/// Detect XOR constraints encoded as full 2^(l-1)-clause groups over the
/// same variable set (sizes 2..max_len). Clauses are left in place; the
/// recovered XORs are returned.
std::vector<XorConstraint> recover_xors(const Cnf& cnf, size_t max_len = 4);

/// Append `x` to `cnf` as plain clauses, cutting constraints longer than
/// `cut` with fresh auxiliary variables (allocated from cnf.num_vars) to
/// bound the 2^(l-1) clause blow-up. The one XOR-to-CNF expansion, shared
/// by Solver::add_xor (without the native engine) and the dimacs-exec
/// backend's DIMACS writer.
void append_xor_as_clauses(Cnf& cnf, const XorConstraint& x, size_t cut = 5);

/// True iff `model` satisfies every clause and XOR of `cnf`.
bool model_satisfies(const Cnf& cnf, const std::vector<LBool>& model);

}  // namespace bosphorus::sat
