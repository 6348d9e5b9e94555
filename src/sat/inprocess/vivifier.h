// Clause vivification (distillation) at restart boundaries -- the
// clausevivifier.cpp shape under a tick budget (one tick = one watch-list
// entry visited by Solver::propagate, the currency the search is
// charged in too).
//
// For a clause C = (l1 | ... | ln) temporarily detached from the
// database, the negations of its literals are enqueued one at a time as
// pseudo-decisions. Three things can happen while walking the literals:
//  * some li is already falsified by the previous assumptions: li is
//    redundant and is dropped;
//  * some li is already satisfied: C is implied by the prefix up to and
//    including li, so the tail is dropped;
//  * propagation conflicts: the prefix disjunction is itself implied by
//    the rest of the formula, so C shrinks to the prefix.
// The replacement clause is implied by F \ {C} in every case, so the
// rewrite preserves the model set exactly -- safe for warm Session
// solvers and for the learnt-fact export (a vivified unit simply lands
// on the level-0 trail and is exported through the normal cursor).
//
// Passes resume round-robin from a persistent cursor, so repeated calls
// at successive restarts cover the whole database even under a small
// per-pass budget. Learnt clauses are visited before irredundant ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sat/types.h"

namespace bosphorus::sat {
class Solver;
}  // namespace bosphorus::sat

namespace bosphorus::sat::inprocess {

class Vivifier {
public:
    struct PassStats {
        uint64_t clauses_examined = 0;
        uint64_t clauses_shrunk = 0;    ///< rewritten with fewer literals
        uint64_t literals_removed = 0;  ///< total literals dropped
        uint64_t clauses_deleted = 0;   ///< proved satisfied at level 0
        uint64_t units_derived = 0;     ///< collapsed to level-0 units
        uint64_t ticks_used = 0;        ///< watch entries visited
    };

    /// One budgeted pass over the database. Requires decision level 0 and
    /// no conflict in flight; returns with the solver back at level 0.
    /// May derive level-0 units (exported as learnt facts) or set
    /// s.ok_ = false when the formula is refuted outright.
    /// The pass stops at the first budget check after `tick_budget`
    /// ticks, so it may overshoot by the propagations of one clause.
    PassStats run(Solver& s, uint64_t tick_budget, uint32_t max_clause_size,
                  bool include_irredundant);

private:
    /// Vivify one clause in place. Returns false when the budget expired
    /// before the clause was finished (the clause is left unchanged).
    bool vivify_one(Solver& s, uint32_t cref, uint64_t ticks_end,
                    PassStats& stats);

    /// Delete a clause from the database with tier bookkeeping. Works
    /// whether or not the clause is still attached.
    static void drop_clause(Solver& s, uint32_t cref);

    // Round-robin cursors into Solver::learnts_ / problem_clauses_.
    size_t learnt_cursor_ = 0;
    size_t irred_cursor_ = 0;

    // vivify_one() scratch, reused across clauses and passes: the clause
    // after the level-0 prescan, and the literals its rewrite keeps.
    std::vector<Lit> work_;
    std::vector<Lit> result_;
};

}  // namespace bosphorus::sat::inprocess
