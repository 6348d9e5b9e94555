#include "sat/inprocess/vivifier.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "sat/inprocess/clause_db.h"
#include "sat/inprocess/inprocess.h"
#include "sat/solver.h"

namespace bosphorus::sat::inprocess {

void Vivifier::drop_clause(Solver& s, uint32_t cref) {
    const Solver::Clause& c = s.clause(cref);
    if (c.learnt && c.tier != kUntracked && s.db_mgr_)
        s.db_mgr_->on_removed(static_cast<Tier>(c.tier));
    s.remove_clause(cref);
}

Vivifier::PassStats Vivifier::run(Solver& s, uint64_t tick_budget,
                                  uint32_t max_clause_size,
                                  bool include_irredundant) {
    PassStats st;
    if (!s.ok_) return st;
    assert(s.decision_level() == 0);

    const uint64_t ticks_start = s.stats_.vivify_ticks;
    const uint64_t ticks_end = ticks_start + tick_budget;

    // Reach the level-0 fixpoint before assuming anything.
    if (s.propagate() != Solver::kNoReason) {
        s.ok_ = false;
        return st;
    }

    bool exhausted = false;
    auto sweep = [&](std::vector<uint32_t>& list, size_t& cursor) {
        const size_t n = list.size();
        if (n == 0) return;
        if (cursor >= n) cursor = 0;
        for (size_t step = 0; step < n && !exhausted && s.ok_; ++step) {
            const size_t idx = (cursor + step) % n;
            const uint32_t cr = list[idx];
            const Solver::Clause& c = s.clause(cr);
            if (c.deleted) continue;
            if (c.size() < 3 || c.size() > max_clause_size) continue;
            if (!vivify_one(s, cr, ticks_end, st)) {
                exhausted = true;
                cursor = idx;  // resume from this clause next pass
            }
        }
        if (!exhausted) cursor = 0;
    };

    sweep(s.learnts_, learnt_cursor_);
    if (s.ok_ && include_irredundant) sweep(s.problem_clauses_, irred_cursor_);

    // Compact deleted clauses out of the lists (cursors stay approximate
    // round-robin positions, which is all they promise).
    if (st.clauses_deleted > 0 || st.units_derived > 0) {
        auto compact = [&s](std::vector<uint32_t>& list) {
            list.erase(std::remove_if(list.begin(), list.end(),
                                      [&s](uint32_t cr) {
                                          return s.clause(cr).deleted;
                                      }),
                       list.end());
        };
        compact(s.learnts_);
        compact(s.problem_clauses_);
    }

    st.ticks_used = s.stats_.vivify_ticks - ticks_start;

    auto& g = counters();
    g.vivify_passes.fetch_add(1, std::memory_order_relaxed);
    g.vivify_ticks.fetch_add(st.ticks_used, std::memory_order_relaxed);
    g.vivified_literals.fetch_add(st.literals_removed,
                                  std::memory_order_relaxed);
    g.vivified_clauses.fetch_add(st.clauses_shrunk, std::memory_order_relaxed);
    g.vivify_deleted.fetch_add(st.clauses_deleted, std::memory_order_relaxed);
    return st;
}

bool Vivifier::vivify_one(Solver& s, uint32_t cref, uint64_t ticks_end,
                          PassStats& st) {
    ++st.clauses_examined;
    const size_t orig_size = s.clause(cref).size();

    // Level-0 prescan. At decision level 0 every assignment is permanent:
    // a satisfied clause can be deleted outright, a falsified literal
    // dropped (both rewrites preserve the model set of the whole formula
    // because the level-0 trail itself survives).
    std::vector<Lit>& work = work_;
    work.clear();
    for (const Lit l : s.clause(cref)) {
        const LBool v = s.value(l);
        if (v == LBool::kTrue) {
            drop_clause(s, cref);
            ++st.clauses_deleted;
            return true;
        }
        if (v == LBool::kFalse) continue;
        work.push_back(l);
    }
    if (work.empty()) {
        // Cannot happen for an attached clause at a level-0 fixpoint (the
        // watch scheme would have reported the conflict); defensive.
        s.ok_ = false;
        return true;
    }
    if (work.size() == 1) {
        // The clause collapsed to a permanent unit.
        s.detach_clause(cref);
        drop_clause(s, cref);
        st.literals_removed += orig_size - 1;
        ++st.units_derived;
        s.enqueue(work[0], Solver::kNoReason);
        if (s.propagate() != Solver::kNoReason) s.ok_ = false;
        return true;
    }

    // Assumption walk: detach C so it cannot propagate against itself,
    // then assume the negation of each literal in turn as a
    // pseudo-decision. `result` accumulates the literals the replacement
    // clause keeps; every rewrite below is implied by F \ {C}.
    s.detach_clause(cref);
    std::vector<Lit>& result = result_;
    result.clear();
    bool budget_out = false;
    size_t next_unexamined = work.size();
    for (size_t i = 0; i < work.size(); ++i) {
        const Lit l = work[i];
        const LBool v = s.value(l);
        if (v == LBool::kFalse) continue;  // implied by the prefix: redundant
        if (v == LBool::kTrue) {           // prefix already implies l
            result.push_back(l);
            break;                         // tail is redundant
        }
        if (i + 1 == work.size()) {
            // Last literal: assuming it cannot shrink anything further.
            result.push_back(l);
            break;
        }
        if (s.stats_.vivify_ticks >= ticks_end) {
            budget_out = true;
            next_unexamined = i;
            break;
        }
        s.trail_lim_.push_back(static_cast<int>(s.trail_.size()));
        s.enqueue(~l, Solver::kNoReason);
        result.push_back(l);
        if (s.propagate() != Solver::kNoReason) {
            // The assumed prefix is itself implied: C shrinks to it.
            break;
        }
    }
    s.cancel_until(0);

    if (budget_out) {
        // Keep the drops already justified (each is valid independently of
        // the tail) plus the unexamined tail, then end the pass.
        for (size_t i = next_unexamined; i < work.size(); ++i)
            result.push_back(work[i]);
    }

    if (result.size() == orig_size) {
        s.attach_clause(cref);  // nothing gained; clause unchanged
        return !budget_out;
    }

    assert(!result.empty());
    if (result.size() == 1) {
        drop_clause(s, cref);
        st.literals_removed += orig_size - 1;
        ++st.units_derived;
        // All kept literals are unassigned after backtracking to level 0.
        s.enqueue(result[0], Solver::kNoReason);
        if (s.propagate() != Solver::kNoReason) s.ok_ = false;
        return !budget_out;
    }

    st.literals_removed += orig_size - result.size();
    ++st.clauses_shrunk;
    s.shrink_clause(cref, result);
    Solver::Clause& c = s.clause(cref);
    const uint32_t new_lbd = std::min(c.lbd, c.size());
    if (new_lbd != c.lbd) {
        c.lbd = new_lbd;
        if (c.learnt && c.tier != kUntracked && s.db_mgr_)
            c.tier = s.db_mgr_->on_vivified(static_cast<Tier>(c.tier), new_lbd);
    }
    s.attach_clause(cref);
    return !budget_out;
}

}  // namespace bosphorus::sat::inprocess
