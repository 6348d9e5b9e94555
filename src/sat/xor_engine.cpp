#include "sat/xor_engine.h"

#include <unordered_map>

#include "gf2/gf2_matrix.h"
#include "sat/solver.h"

namespace bosphorus::sat {

void XorEngine::add_xor(XorConstraint x) {
    const uint32_t idx = static_cast<uint32_t>(rows_.size());
    Row row;
    row.vars = std::move(x.vars);
    row.rhs = x.rhs;
    for (Var v : row.vars) {
        if (occ_.size() <= v) occ_.resize(v + 1);
        occ_[v].push_back(idx);
    }
    rows_.push_back(std::move(row));
}

void XorEngine::ensure_num_vars(size_t n) {
    if (occ_.size() < n) occ_.resize(n);
}

XorEngine::RowState XorEngine::scan(const Row& row) const {
    RowState st;
    for (Var v : row.vars) {
        const LBool val = solver_.value(v);
        if (val == LBool::kUndef) {
            ++st.unassigned;
            st.last_unassigned = v;
        } else {
            st.parity_of_assigned ^= (val == LBool::kTrue);
        }
    }
    return st;
}

void XorEngine::reason_clause(const Row& row, Var implied_var,
                              bool implied_value,
                              std::vector<Lit>& clause) const {
    clause.clear();
    // The implied literal goes first (CDCL reason-clause convention).
    clause.push_back(mk_lit(implied_var, !implied_value));
    for (Var v : row.vars) {
        if (v == implied_var) continue;
        // Push the literal that is false under the current assignment.
        clause.push_back(mk_lit(v, solver_.value(v) == LBool::kTrue));
    }
}

bool XorEngine::gauss_jordan_level0() {
    // The pass's output depends on the rows alone, and what it derived
    // last time is still in the solver: rerun only after new rows.
    if (rows_.size() == gje_rows_) return solver_.okay();

    // Column space: only variables that occur in some XOR, plus the
    // right-hand-side column at the end.
    std::unordered_map<Var, size_t> col_of;
    std::vector<Var> var_of_col;
    for (const auto& row : rows_) {
        for (Var v : row.vars) {
            if (col_of.emplace(v, var_of_col.size()).second)
                var_of_col.push_back(v);
        }
    }
    const size_t ncols = var_of_col.size() + 1;
    const size_t rhs_col = var_of_col.size();

    gf2::Matrix m(rows_.size(), ncols);
    for (size_t r = 0; r < rows_.size(); ++r) {
        for (Var v : rows_[r].vars) m.flip(r, col_of[v]);
        if (rows_[r].rhs) m.flip(r, rhs_col);
        // Fold in variables already assigned at level 0.
        // (Handled implicitly: units derived below re-propagate.)
    }
    m.rref();

    for (size_t r = 0; r < m.rows(); ++r) {
        size_t weight = 0;
        Var v1 = 0, v2 = 0;
        for (size_t c = 0; c < rhs_col && weight <= 2; ++c) {
            if (m.get(r, c)) {
                if (weight == 0) v1 = var_of_col[c];
                else if (weight == 1) v2 = var_of_col[c];
                ++weight;
            }
        }
        const bool rhs = m.get(r, rhs_col);
        if (weight == 0) {
            if (rhs) return false;  // 0 = 1
        } else if (weight == 1) {
            solver_.enqueue_or_check(v1, rhs);
            if (!solver_.okay()) return false;
        } else if (weight == 2) {
            // v1 ^ v2 = rhs: an (in)equivalence, added as two binaries.
            // rhs = 0: v1 == v2;  rhs = 1: v1 == !v2.
            if (!solver_.add_clause({mk_lit(v1, false), mk_lit(v2, !rhs)}))
                return false;
            if (!solver_.add_clause({mk_lit(v1, true), mk_lit(v2, rhs)}))
                return false;
        }
    }
    gje_rows_ = rows_.size();
    return solver_.okay();
}

bool XorEngine::propagate(std::vector<Lit>& out_conflict) {
    out_conflict.clear();
    while (qhead_ < solver_.trail_.size()) {
        const Var v = solver_.trail_[qhead_++].var();
        if (v >= occ_.size()) continue;
        for (const uint32_t ri : occ_[v]) {
            const Row& row = rows_[ri];
            const RowState st = scan(row);
            if (st.unassigned == 0) {
                if (st.parity_of_assigned != row.rhs) {
                    // Fully assigned, wrong parity: conflict. Every literal
                    // in the conflict clause is false right now.
                    for (Var u : row.vars) {
                        out_conflict.push_back(
                            mk_lit(u, solver_.value(u) == LBool::kTrue));
                    }
                    return false;
                }
            } else if (st.unassigned == 1) {
                const bool val = row.rhs ^ st.parity_of_assigned;
                // Conflict analysis never reads the reason of a level-0
                // variable, so only implications above level 0 get one.
                Solver::CRef cr = Solver::kNoReason;
                if (solver_.decision_level() > 0) {
                    reason_clause(row, st.last_unassigned, val, reason_);
                    cr = solver_.alloc_transient(reason_);
                }
                solver_.enqueue(mk_lit(st.last_unassigned, !val), cr);
                ++solver_.stats_.xor_propagations;
            }
        }
    }
    return true;
}

}  // namespace bosphorus::sat
