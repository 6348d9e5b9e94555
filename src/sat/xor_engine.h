// Native XOR constraint reasoning for the CMS-like solver configuration.
//
// CryptoMiniSat attaches GF(2) linear constraints directly to the CDCL
// search and runs Gauss-Jordan elimination over them. We reproduce the two
// behaviours that matter for the paper's experiments:
//
//  1. A *level-0 Gauss-Jordan pass* over the whole XOR system (using the
//     gf2 matrix substrate) that detects inconsistency and derives implied
//     unit and equivalence facts before search begins.
//  2. *Watched-XOR unit propagation* during search: each row watches two
//     unassigned variables; when a row has a single unassigned variable left
//     its value is implied, and a fully assigned row with wrong parity is a
//     conflict. Reasons are materialised as clauses so the CDCL conflict
//     analysis works unchanged. They are transient: a reason clause is
//     garbage once its variable is unassigned, and the solver's arena
//     collection reclaims it.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/types.h"

namespace bosphorus::sat {

class Solver;

class XorEngine {
public:
    explicit XorEngine(Solver& solver) : solver_(solver) {}

    /// Register a constraint. Constants (already-assigned vars) are fine;
    /// they are evaluated lazily against the trail.
    void add_xor(XorConstraint x);

    /// Grow internal per-variable structures.
    void ensure_num_vars(size_t n);

    /// Run Gauss-Jordan elimination over all rows at decision level 0.
    /// Derived units are enqueued into the solver; derived equivalences are
    /// added as binary clauses. Returns false on GF(2)-level inconsistency
    /// (0 = 1 row). A no-op returning okay() when no row was added since
    /// the last pass: its output is already in the solver.
    bool gauss_jordan_level0();

    /// Propagate all XOR rows against the current assignment, starting from
    /// the solver's XOR queue head. Returns a conflicting row's reason
    /// clause via out_conflict (empty if no conflict). Implied literals are
    /// enqueued into the solver with materialised reason clauses.
    /// Returns false on conflict.
    bool propagate(std::vector<Lit>& out_conflict);

    size_t num_rows() const { return rows_.size(); }

    /// Reset the propagation cursor (after backtracking past watched state).
    void set_qhead(size_t q) { qhead_ = q; }
    size_t qhead() const { return qhead_; }

private:
    struct Row {
        std::vector<Var> vars;
        bool rhs = false;
    };

    /// Row status against the current trail.
    struct RowState {
        int unassigned = 0;
        Var last_unassigned = 0;
        bool parity_of_assigned = false;
    };
    RowState scan(const Row& row) const;

    /// Reason clause asserting `implied_var = implied_value` given the
    /// other (assigned) vars of the row, written to `clause`.
    void reason_clause(const Row& row, Var implied_var, bool implied_value,
                       std::vector<Lit>& clause) const;

    Solver& solver_;
    std::vector<Row> rows_;
    std::vector<std::vector<uint32_t>> occ_;  // var -> row indices
    size_t qhead_ = 0;                        // cursor into solver trail
    size_t gje_rows_ = 0;  // rows_.size() at the last Gauss-Jordan pass
    std::vector<Lit> reason_;  // propagate() scratch
};

}  // namespace bosphorus::sat
