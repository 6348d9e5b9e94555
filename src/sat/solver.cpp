#include "sat/solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <new>

#include "sat/solve_cnf.h"
#include "sat/xor_engine.h"

namespace bosphorus::sat {

Solver::Solver(Config cfg) : cfg_(cfg) {
    // Effective knobs start at the Config values; a profile application
    // (in-processing only) overrides them per solve call.
    eff_var_decay_ = cfg_.var_decay;
    eff_clause_decay_ = cfg_.clause_decay;
    eff_restart_base_ = cfg_.restart_base;
    eff_vivify_interval_ = cfg_.inprocess.vivify_restart_interval;
    if (cfg_.inprocess.enabled) {
        db_mgr_ = std::make_unique<inprocess::ClauseDbManager>(cfg_.inprocess);
        vivifier_ = std::make_unique<inprocess::Vivifier>();
    }
    if (cfg_.enable_xor) xor_engine_ = std::make_unique<XorEngine>(*this);
}

Solver::~Solver() = default;

Var Solver::new_var() {
    const Var v = static_cast<Var>(num_vars());
    lit_value_.push_back(LBool::kUndef);
    lit_value_.push_back(LBool::kUndef);
    polarity_.push_back(true);  // default phase: assign false first
    var_level_.push_back(0);
    var_reason_.push_back(kNoReason);
    activity_.push_back(0.0);
    heap_pos_.push_back(-1);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    insert_var_order(v);
    if (xor_engine_) xor_engine_->ensure_num_vars(num_vars());
    return v;
}

bool Solver::add_clause(const std::vector<Lit>& lits) {
    if (!ok_) return false;
    assert(decision_level() == 0);

    // Canonicalise in the scratch buffer: sort, dedupe, drop false
    // literals, detect tautology and satisfied clauses.
    std::vector<Lit>& out = add_buf_;
    out.assign(lits.begin(), lits.end());
    std::sort(out.begin(), out.end());
    size_t kept = 0;
    Lit prev = lit_undef();
    for (const Lit l : out) {
        assert(l.var() < num_vars());
        if (value(l) == LBool::kTrue || l == ~prev) return true;  // satisfied/tautology
        if (value(l) == LBool::kFalse || l == prev) continue;     // falsified/duplicate
        out[kept++] = l;
        prev = l;
    }
    out.resize(kept);

    if (out.empty()) {
        ok_ = false;
        return false;
    }
    if (out.size() == 1) {
        enqueue(out[0], kNoReason);
        return ok_ = (propagate() == kNoReason);
    }
    const CRef cr = alloc_clause(out, /*learnt=*/false);
    problem_clauses_.push_back(cr);
    attach_clause(cr);
    return true;
}

bool Solver::add_xor(const XorConstraint& x) {
    if (!ok_) return false;
    // Normalise: XOR semantics are insensitive to order; duplicate vars
    // cancel in pairs.
    std::vector<Var> vars = x.vars;
    std::sort(vars.begin(), vars.end());
    std::vector<Var> kept;
    for (size_t i = 0; i < vars.size();) {
        size_t j = i;
        while (j < vars.size() && vars[j] == vars[i]) ++j;
        if ((j - i) % 2 == 1) kept.push_back(vars[i]);
        i = j;
    }
    bool rhs = x.rhs;

    if (kept.empty()) {
        if (rhs) ok_ = false;
        return ok_;
    }
    if (kept.size() == 1) {
        enqueue_or_check(kept[0], rhs);
        return ok_;
    }

    if (xor_engine_) {
        XorConstraint norm{std::move(kept), rhs};
        xor_engine_->add_xor(std::move(norm));
        return true;
    }

    // No native XOR support: expand into CNF through the shared
    // append_xor_as_clauses helper (sat/solve_cnf.h), which cuts long
    // constraints with fresh auxiliary variables to bound the 2^(l-1)
    // clause blow-up.
    Cnf expansion;
    expansion.num_vars = num_vars();
    append_xor_as_clauses(expansion, XorConstraint{std::move(kept), rhs});
    while (num_vars() < expansion.num_vars) new_var();
    for (auto& clause : expansion.clauses) {
        if (!add_clause(std::move(clause))) return false;
    }
    return ok_;
}

void Solver::enqueue_or_check(Var v, bool val) {
    const Lit l = mk_lit(v, !val);
    if (value(l) == LBool::kFalse) {
        ok_ = false;
    } else if (value(l) == LBool::kUndef) {
        enqueue(l, kNoReason);
        if (propagate() != kNoReason) ok_ = false;
    }
}

bool Solver::load(const Cnf& cnf) {
    while (num_vars() < cnf.num_vars) new_var();
    for (const auto& cl : cnf.clauses) {
        if (!add_clause(cl)) return false;
    }
    for (const auto& x : cnf.xors) {
        if (!add_xor(x)) return false;
    }
    return ok_;
}

// ---------------------------------------------------------------- clauses

Solver::CRef Solver::alloc_clause(std::span<const Lit> lits, bool learnt) {
    const size_t at = arena_.size();
    assert(at + kHeaderWords + lits.size() < kNoReason);
    arena_.resize(at + kHeaderWords + lits.size());
    auto* c = new (arena_.data() + at)
        Clause(static_cast<uint32_t>(lits.size()), learnt);
    std::uninitialized_copy(lits.begin(), lits.end(), c->begin());
    return static_cast<CRef>(at);
}

Solver::CRef Solver::alloc_transient(std::span<const Lit> lits) {
    // Learnt, so conflict analysis bumps it like any learnt clause.
    const CRef cr = alloc_clause(lits, /*learnt=*/true);
    clause(cr).transient = 1;
    wasted_ += clause_words(clause(cr));
    return cr;
}

void Solver::attach_clause(CRef cr) {
    const Clause& c = clause(cr);
    assert(c.size() >= 2);
    watches_[(~c[0]).raw()].push_back({cr, c[1]});
    watches_[(~c[1]).raw()].push_back({cr, c[0]});
}

void Solver::detach_clause(CRef cr) {
    const Clause& c = clause(cr);
    for (int i = 0; i < 2; ++i) {
        auto& ws = watches_[(~c[i]).raw()];
        for (size_t j = 0; j < ws.size(); ++j) {
            if (ws[j].cref == cr) {
                ws[j] = ws.back();
                ws.pop_back();
                break;
            }
        }
    }
}

void Solver::remove_clause(CRef cr) {
    detach_clause(cr);
    Clause& c = clause(cr);
    c.deleted = 1;
    wasted_ += clause_words(c);
    ++stats_.deleted_clauses;
}

void Solver::shrink_clause(CRef cr, std::span<const Lit> lits) {
    Clause& c = clause(cr);
    assert(lits.size() <= c.size());
    std::copy(lits.begin(), lits.end(), c.begin());
    wasted_ += c.size() - lits.size();
    c.size_ = static_cast<uint32_t>(lits.size());
}

void Solver::maybe_collect_garbage() {
    if (100 * wasted_ > kGcWastePercent * arena_.size()) collect_garbage();
}

void Solver::collect_garbage() {
    // Only at level 0, where every XOR reason is garbage: live means
    // listed. A deleted clause can still be the reason of a level-0
    // variable, whose reason nothing reads; drop it.
    assert(decision_level() == 0);
    std::vector<CRef> live;
    live.reserve(problem_clauses_.size() + learnts_.size());
    live.insert(live.end(), problem_clauses_.begin(), problem_clauses_.end());
    live.insert(live.end(), learnts_.begin(), learnts_.end());
    // Copying in old-offset order keeps crefs ordered as they were, so
    // every cref comparison (reduce()'s tie-break) decides as before.
    std::sort(live.begin(), live.end());
    std::vector<uint32_t> to;
    to.reserve(arena_.size() - wasted_);
    for (const CRef cr : live) {
        Clause& c = clause(cr);
        assert(!c.deleted && !c.transient && !c.relocated);
        const CRef moved = static_cast<CRef>(to.size());
        to.insert(to.end(), arena_.data() + cr,
                  arena_.data() + cr + clause_words(c));
        c.relocated = 1;
        c.lbd = moved;  // forwarding address
    }
    auto forward = [this](CRef& cr) {
        assert(clause(cr).relocated);
        cr = clause(cr).lbd;
    };
    for (CRef& cr : problem_clauses_) forward(cr);
    for (CRef& cr : learnts_) forward(cr);
    for (auto& ws : watches_)
        for (Watcher& w : ws) forward(w.cref);
    for (const Lit l : trail_) {
        CRef& r = var_reason_[l.var()];
        if (r == kNoReason) continue;
        assert(!clause(r).transient);
        if (clause(r).deleted) {
            r = kNoReason;
        } else {
            forward(r);
        }
    }
    arena_.swap(to);
    wasted_ = 0;
}

// ------------------------------------------------------------ propagation

void Solver::enqueue(Lit l, CRef reason) {
    assert(value(l) == LBool::kUndef);
    lit_value_[l.raw()] = LBool::kTrue;
    lit_value_[(~l).raw()] = LBool::kFalse;
    var_level_[l.var()] = decision_level();
    var_reason_[l.var()] = reason;
    trail_.push_back(l);
}

Solver::CRef Solver::propagate() {
    CRef confl = kNoReason;
    uint64_t ticks = 0;  // watch-list entries visited: the effort currency
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        const Lit false_lit = ~p;
        ++stats_.propagations;
        std::vector<Watcher>& ws = watches_[p.raw()];
        Watcher* i = ws.data();
        Watcher* j = i;
        Watcher* const end = i + ws.size();
        while (i != end) {
            ++ticks;
            const Lit blocker = i->blocker;
            if (value(blocker) == LBool::kTrue) {
                *j++ = *i++;
                continue;
            }
            const CRef cr = i->cref;
            ++i;
            Clause& c = clause(cr);
            Lit* lits = c.begin();
            // Ensure the false literal (~p) is at position 1.
            if (lits[0] == false_lit) {
                lits[0] = lits[1];
                lits[1] = false_lit;
            }
            assert(lits[1] == false_lit);

            const Lit first = lits[0];
            const Watcher w{cr, first};
            if (first != blocker && value(first) == LBool::kTrue) {
                *j++ = w;
                continue;
            }
            // Look for a new literal to watch. The new watch list is never
            // ws itself (lits[k] is not false, ~p is), so i and j stay valid.
            Lit* k = lits + 2;
            Lit* const stop = lits + c.size();
            while (k != stop && value(*k) == LBool::kFalse) ++k;
            if (k != stop) {
                lits[1] = *k;
                *k = false_lit;
                watches_[(~lits[1]).raw()].push_back(w);
                continue;
            }

            // Clause is unit or conflicting.
            *j++ = w;
            if (value(first) == LBool::kFalse) {
                confl = cr;
                qhead_ = trail_.size();
                while (i != end) *j++ = *i++;
            } else {
                enqueue(first, cr);
            }
        }
        ws.resize(static_cast<size_t>(j - ws.data()));
        if (confl != kNoReason) break;
    }
    (vivifying_ ? stats_.vivify_ticks : stats_.search_ticks) += ticks;
    return confl;
}

// ------------------------------------------------------- conflict analysis

void Solver::analyze(CRef confl, std::vector<Lit>& out_learnt,
                     int& out_btlevel, uint32_t& out_lbd) {
    out_learnt.clear();
    out_learnt.push_back(lit_undef());  // slot for the asserting literal

    int path_count = 0;
    Lit p = lit_undef();
    size_t index = trail_.size();

    do {
        assert(confl != kNoReason);
        Clause& c = clause(confl);
        if (c.learnt) {
            cla_bump(c);
            // In-processing: refresh the LBD of clauses participating in
            // conflicts (all their literals are assigned here, so the
            // levels are valid) and remember they were useful. XOR
            // conflict/reason clauses stay kUntracked and are skipped.
            if (c.tier != inprocess::kUntracked) {
                c.used = 1;
                const uint32_t nl = clause_lbd(c.lits());
                if (nl < c.lbd) {
                    c.lbd = nl;
                    c.tier = static_cast<uint8_t>(db_mgr_->on_lbd_improved(
                        static_cast<inprocess::Tier>(c.tier), nl));
                }
            }
        }

        const size_t start = (p == lit_undef()) ? 0 : 1;
        for (size_t k = start; k < c.size(); ++k) {
            const Lit q = c[k];
            if (seen_[q.var()] || level(q.var()) == 0) continue;
            seen_[q.var()] = 1;
            var_bump(q.var());
            if (level(q.var()) >= decision_level()) {
                ++path_count;
            } else {
                out_learnt.push_back(q);
            }
        }
        // Walk back to the next marked literal on the trail.
        while (!seen_[trail_[index - 1].var()]) --index;
        p = trail_[--index];
        confl = var_reason_[p.var()];
        seen_[p.var()] = 0;
        --path_count;
    } while (path_count > 0);
    out_learnt[0] = ~p;

    // Conflict-clause minimisation: drop literals implied by the rest.
    analyze_clear_.assign(out_learnt.begin() + 1, out_learnt.end());
    for (const Lit l : analyze_clear_) seen_[l.var()] = 1;
    uint32_t abstract_levels = 0;
    for (size_t i = 1; i < out_learnt.size(); ++i)
        abstract_levels |= 1u << (level(out_learnt[i].var()) & 31);
    size_t keep = 1;
    for (size_t i = 1; i < out_learnt.size(); ++i) {
        if (var_reason_[out_learnt[i].var()] == kNoReason ||
            !lit_redundant(out_learnt[i], abstract_levels)) {
            out_learnt[keep++] = out_learnt[i];
        }
    }
    out_learnt.resize(keep);
    for (const Lit l : analyze_clear_) seen_[l.var()] = 0;
    seen_[out_learnt[0].var()] = 0;

    // Compute backtrack level and LBD.
    if (out_learnt.size() == 1) {
        out_btlevel = 0;
    } else {
        size_t max_i = 1;
        for (size_t i = 2; i < out_learnt.size(); ++i) {
            if (level(out_learnt[i].var()) > level(out_learnt[max_i].var()))
                max_i = i;
        }
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = level(out_learnt[1].var());
    }
    // Minimisation never keeps a level-0 literal, so this is the plain
    // count of distinct levels.
    out_lbd = clause_lbd(out_learnt);
}

bool Solver::lit_redundant(Lit l, uint32_t abstract_levels) {
    analyze_stack_.clear();
    analyze_stack_.push_back(l);
    const size_t top = analyze_clear_.size();
    while (!analyze_stack_.empty()) {
        const Lit q = analyze_stack_.back();
        analyze_stack_.pop_back();
        assert(var_reason_[q.var()] != kNoReason);
        const Clause& c = clause(var_reason_[q.var()]);
        for (size_t i = 1; i < c.size(); ++i) {
            const Lit p = c[i];
            if (seen_[p.var()] || level(p.var()) == 0) continue;
            if (var_reason_[p.var()] == kNoReason ||
                !((1u << (level(p.var()) & 31)) & abstract_levels)) {
                // Cannot be shown redundant: undo the marks made here.
                for (size_t j = top; j < analyze_clear_.size(); ++j)
                    seen_[analyze_clear_[j].var()] = 0;
                analyze_clear_.resize(top);
                return false;
            }
            seen_[p.var()] = 1;
            analyze_stack_.push_back(p);
            analyze_clear_.push_back(p);
        }
    }
    return true;
}

void Solver::cancel_until(int target_level) {
    if (decision_level() <= target_level) return;
    const size_t new_size = trail_lim_[target_level];
    for (size_t i = trail_.size(); i-- > new_size;) {
        const Var v = trail_[i].var();
        lit_value_[mk_lit(v).raw()] = LBool::kUndef;
        lit_value_[mk_lit(v, true).raw()] = LBool::kUndef;
        polarity_[v] = trail_[i].sign();
        var_reason_[v] = kNoReason;
        if (heap_pos_[v] < 0) insert_var_order(v);
    }
    trail_.resize(new_size);
    trail_lim_.resize(target_level);
    qhead_ = std::min(qhead_, trail_.size());
    if (xor_engine_)
        xor_engine_->set_qhead(std::min(xor_engine_->qhead(), trail_.size()));
}

// ----------------------------------------------------------------- VSIDS

void Solver::var_bump(Var v) {
    activity_[v] += var_inc_;
    if (activity_[v] > 1e100) {
        for (auto& a : activity_) a *= 1e-100;
        var_inc_ *= 1e-100;
    }
    if (heap_pos_[v] >= 0) heap_up(static_cast<size_t>(heap_pos_[v]));
}

void Solver::var_decay_all() { var_inc_ /= eff_var_decay_; }

void Solver::cla_bump(Clause& c) {
    c.activity += static_cast<float>(cla_inc_);
    if (c.activity > 1e20f) {
        for (CRef cr : learnts_) clause(cr).activity *= 1e-20f;
        cla_inc_ *= 1e-20;
    }
}

bool Solver::heap_lt(Var a, Var b) const {
    if (activity_[a] != activity_[b]) return activity_[a] > activity_[b];
    return a < b;  // deterministic tie-break
}

void Solver::insert_var_order(Var v) {
    if (heap_pos_[v] >= 0) return;
    heap_pos_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    heap_up(heap_.size() - 1);
}

void Solver::heap_up(size_t i) {
    const Var v = heap_[i];
    while (i > 0) {
        const size_t parent = (i - 1) / 2;
        if (!heap_lt(v, heap_[parent])) break;
        heap_[i] = heap_[parent];
        heap_pos_[heap_[i]] = static_cast<int>(i);
        i = parent;
    }
    heap_[i] = v;
    heap_pos_[v] = static_cast<int>(i);
}

void Solver::heap_down(size_t i) {
    const Var v = heap_[i];
    for (;;) {
        const size_t left = 2 * i + 1;
        if (left >= heap_.size()) break;
        size_t child = left;
        if (left + 1 < heap_.size() && heap_lt(heap_[left + 1], heap_[left]))
            child = left + 1;
        if (!heap_lt(heap_[child], v)) break;
        heap_[i] = heap_[child];
        heap_pos_[heap_[i]] = static_cast<int>(i);
        i = child;
    }
    heap_[i] = v;
    heap_pos_[v] = static_cast<int>(i);
}

Lit Solver::pick_branch_lit() {
    while (!heap_.empty()) {
        const Var v = heap_[0];
        heap_[0] = heap_.back();
        heap_pos_[heap_[0]] = 0;
        heap_.pop_back();
        heap_pos_[v] = -1;
        if (!heap_.empty()) heap_down(0);
        if (value(v) == LBool::kUndef) return mk_lit(v, polarity_[v]);
    }
    return lit_undef();
}

// ------------------------------------------------------------- learnt DB

void Solver::reduce_db() {
    // Order learnts: glue (LBD <= 2) are protected; otherwise prefer to
    // delete high-LBD, low-activity clauses.
    std::sort(learnts_.begin(), learnts_.end(), [this](CRef a, CRef b) {
        const Clause& ca = clause(a);
        const Clause& cb = clause(b);
        if ((ca.lbd <= 2) != (cb.lbd <= 2)) return cb.lbd <= 2;
        if (ca.lbd != cb.lbd) return ca.lbd > cb.lbd;
        return ca.activity < cb.activity;
    });
    const size_t limit = learnts_.size() / 2;
    std::vector<CRef> kept;
    kept.reserve(learnts_.size());
    size_t removed = 0;
    for (size_t i = 0; i < learnts_.size(); ++i) {
        const CRef cr = learnts_[i];
        const Clause& c = clause(cr);
        const bool locked = var_reason_[c[0].var()] == cr &&
                            value(c[0]) == LBool::kTrue;
        if (removed < limit && c.lbd > 2 && c.size() > 2 && !locked) {
            remove_clause(cr);
            ++removed;
        } else {
            kept.push_back(cr);
        }
    }
    learnts_ = std::move(kept);
}

// --------------------------------------------------------- in-processing

void Solver::apply_profile(inprocess::ProfileId id) {
    using inprocess::ProfileId;
    inprocess::SolverProfile p;
    if (id == ProfileId::kFixed) {
        // Honour the explicit Config knobs verbatim.
        p = {"fixed",
             cfg_.var_decay,
             cfg_.clause_decay,
             cfg_.restart_base,
             cfg_.inprocess.core_lbd_cut,
             cfg_.inprocess.mid_lbd_cut,
             cfg_.inprocess.vivify_restart_interval,
             cfg_.inprocess.local_cap_growth};
    } else {
        p = inprocess::profile(id);
    }
    eff_var_decay_ = p.var_decay;
    eff_clause_decay_ = p.clause_decay;
    eff_restart_base_ = p.restart_base;
    eff_vivify_interval_ = p.vivify_restart_interval;
    db_mgr_->apply_profile(p);
    if (profile_applied_ && id != active_profile_) {
        ++stats_.reconf_decisions;
        inprocess::counters().reconf_decisions.fetch_add(
            1, std::memory_order_relaxed);
    }
    profile_applied_ = true;
    active_profile_ = id;
}

uint64_t Solver::vivify_allowance() const {
    // Carrying the overshoot forward keeps the running total bounded:
    // vivify_ticks <= vivify_effort x search_ticks + one pass's overshoot.
    // Compared as doubles first, so a negative or NaN effort skips the
    // pass instead of reaching an out-of-range conversion.
    const double earned =
        cfg_.inprocess.vivify_effort *
        static_cast<double>(stats_.search_ticks - vivify_mark_);
    return earned > static_cast<double>(vivify_debt_)
               ? static_cast<uint64_t>(earned) - vivify_debt_
               : 0;
}

inprocess::Vivifier::PassStats Solver::run_vivify_pass(uint64_t tick_budget) {
    publish_search_ticks();
    vivifying_ = true;
    const auto ps = vivifier_->run(*this, tick_budget,
                                   cfg_.inprocess.vivify_max_clause_size,
                                   cfg_.inprocess.vivify_irredundant);
    vivifying_ = false;
    stats_.vivified_literals += ps.literals_removed;
    stats_.vivified_clauses += ps.clauses_shrunk;
    ++stats_.vivify_passes;
    vivify_mark_ = stats_.search_ticks;
    vivify_debt_ = ps.ticks_used > tick_budget ? ps.ticks_used - tick_budget : 0;
    return ps;
}

void Solver::publish_search_ticks() {
    inprocess::counters().search_ticks.fetch_add(
        stats_.search_ticks - search_ticks_published_,
        std::memory_order_relaxed);
    search_ticks_published_ = stats_.search_ticks;
}

uint32_t Solver::clause_lbd(std::span<const Lit> lits) {
    // Only valid for fully assigned literals (analyze): unassigned
    // variables carry stale levels.
    ++lbd_stamp_;
    uint32_t lbd = 0;
    for (const Lit l : lits) {
        const int lv = level(l.var());
        if (lv == 0) continue;  // level-0 literals are effectively gone
        if (static_cast<size_t>(lv) >= level_stamp_.size())
            level_stamp_.resize(static_cast<size_t>(lv) + 1, 0);
        if (level_stamp_[lv] != lbd_stamp_) {
            level_stamp_[lv] = lbd_stamp_;
            ++lbd;
        }
    }
    return lbd;
}

bool Solver::check_db_invariants() const {
    // 1. Clause lists hold only live clauses with consistent flags; the
    //    tier counts match a full recount.
    for (const CRef cr : problem_clauses_) {
        if (cr >= arena_.size()) return false;
        const Clause& c = clause(cr);
        if (c.deleted || c.learnt || c.transient) return false;
    }
    inprocess::ClauseDbManager::TierCounts recount;
    for (const CRef cr : learnts_) {
        if (cr >= arena_.size()) return false;
        const Clause& c = clause(cr);
        if (c.deleted || !c.learnt || c.transient) return false;
        if (db_mgr_) {
            switch (c.tier) {
                case inprocess::kCore: ++recount.core; break;
                case inprocess::kMid: ++recount.mid; break;
                case inprocess::kLocal: ++recount.local; break;
                default: return false;  // kUntracked must not be listed
            }
        }
    }
    if (db_mgr_) {
        const auto& tc = db_mgr_->tier_counts();
        if (recount.core != tc.core || recount.mid != tc.mid ||
            recount.local != tc.local)
            return false;
    }
    // 2. Every watcher points at a live clause and watches one of its
    //    first two literals; every listed clause is watched exactly twice.
    std::vector<uint8_t> watch_count(arena_.size(), 0);
    for (size_t raw = 0; raw < watches_.size(); ++raw) {
        const Lit watched = ~Lit::from_raw(static_cast<uint32_t>(raw));
        for (const Watcher& w : watches_[raw]) {
            if (w.cref >= arena_.size()) return false;
            const Clause& c = clause(w.cref);
            if (c.deleted || c.transient || c.size() < 2) return false;
            if (c[0] != watched && c[1] != watched) return false;
            if (watch_count[w.cref] >= 2) return false;
            ++watch_count[w.cref];
        }
    }
    for (const CRef cr : problem_clauses_) {
        if (watch_count[cr] != 2) return false;
    }
    for (const CRef cr : learnts_) {
        if (watch_count[cr] != 2) return false;
    }
    // 3. Reasons of variables assigned above level 0 are live clauses
    //    whose first literal is the implied one.
    for (const Lit l : trail_) {
        if (var_level_[l.var()] == 0) continue;
        const CRef r = var_reason_[l.var()];
        if (r == kNoReason) continue;
        if (r >= arena_.size()) return false;
        const Clause& c = clause(r);
        if (c.deleted || c[0] != l) return false;
    }
    // 4. The wasted-word count is exact: the arena less the words of the
    //    listed clauses (transient clauses are waste from allocation on).
    size_t listed_words = 0;
    for (const CRef cr : problem_clauses_)
        listed_words += clause_words(clause(cr));
    for (const CRef cr : learnts_) listed_words += clause_words(clause(cr));
    return listed_words + wasted_ == arena_.size();
}

void Solver::debug_force_reduce() {
    if (inprocessing_on()) {
        db_mgr_->reduce(*this);
    } else {
        reduce_db();
    }
}

inprocess::Vivifier::PassStats Solver::debug_force_vivify(
    uint64_t tick_budget) {
    if (!vivifier_ || !ok_) return {};
    cancel_until(0);
    return run_vivify_pass(tick_budget);
}

double Solver::luby(double y, int i) const {
    // Finite subsequence length and position within it.
    int size = 1, seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) / 2;
        --seq;
        i = i % size;
    }
    return std::pow(y, seq);
}

void Solver::record_learnt_fact(const std::vector<Lit>& clause) {
    if (clause.size() == 2) {
        const Lit lo = std::min(clause[0], clause[1]);
        const Lit hi = std::max(clause[0], clause[1]);
        const uint64_t key =
            (static_cast<uint64_t>(lo.raw()) << 32) | hi.raw();
        if (binaries_seen_.insert(key).second)
            learnt_binaries_.push_back({clause[0], clause[1]});
    }
    // Unit learnt clauses reach the trail at level 0 and are exported via
    // the units_reported_ cursor in solve().
}

// ------------------------------------------------------------------ solve

Result Solver::solve(int64_t conflict_budget, double timeout_s) {
    return solve_assuming({}, conflict_budget, timeout_s);
}

Result Solver::solve_assuming(const std::vector<Lit>& assumptions,
                              int64_t conflict_budget, double timeout_s) {
    cancel_until(0);  // make repeated solve calls on one instance safe
    failed_assumptions_.clear();
    if (!ok_) return Result::kUnsat;
    Timer timer;

    // Sticky interrupt + IPASIR-style terminate hook. The atomic flag is
    // checked at every conflict and decision; the (potentially costlier)
    // callback only every 128th poll.
    uint32_t poll_counter = 0;
    auto stop_requested = [&]() -> bool {
        if (interrupt_.load(std::memory_order_acquire)) return true;
        if (terminate_cb_ && (++poll_counter & 127u) == 0 && terminate_cb_())
            return true;
        return false;
    };
    if (stop_requested()) return Result::kUnknown;

    if (xor_engine_ && !xor_engine_->gauss_jordan_level0()) {
        ok_ = false;
        return Result::kUnsat;
    }

    if (inprocessing_on()) {
        ++solve_calls_;
        // Per-call profile (re-)selection: static features plus the LBD
        // window observed in the previous call.
        feat_ = inprocess::InstanceFeatures::extract(*this);
        feat_.avg_first_window_lbd = prev_window_lbd_;
        inprocess::ProfileId want = cfg_.inprocess.profile;
        if (want == inprocess::ProfileId::kAuto)
            want = inprocess::select_profile(feat_);
        apply_profile(want);
        window_lbd_sum_ = 0;
        window_lbd_count_ = 0;
        window_reconf_done_ = false;
        // Entry vivification on warm re-solves only: a cold one-shot call
        // pays nothing up front, and the budget is a share of the search
        // done since the last pass, so a pass after a short warm solve is
        // short too.
        const uint64_t budget =
            cfg_.inprocess.vivify && solve_calls_ > 1 ? vivify_allowance() : 0;
        if (budget > 0) {
            run_vivify_pass(budget);
            if (!ok_) {
                while (units_reported_ < trail_.size())
                    learnt_units_.push_back(trail_[units_reported_++]);
                return Result::kUnsat;
            }
        }
    } else {
        // Legacy learnt-DB cap, reset on every call.
        max_learnts_ = std::max<double>(
            static_cast<double>(problem_clauses_.size()) / 3.0, 1000.0);
    }

    int64_t conflicts_this_call = 0;
    int curr_restarts = 0;
    int64_t restart_limit = static_cast<int64_t>(
        luby(2.0, curr_restarts) * eff_restart_base_);
    int64_t conflicts_since_restart = 0;

    std::vector<Lit> learnt_clause;
    Result result = Result::kUnknown;

    for (;;) {
        // Propagation: clause propagation and XOR propagation to fixpoint.
        CRef confl = propagate();
        if (confl == kNoReason && xor_engine_) {
            std::vector<Lit> xconfl;
            if (!xor_engine_->propagate(xconfl)) {
                // Materialise the conflicting XOR row as a clause.
                confl = alloc_transient(xconfl);
            } else if (qhead_ < trail_.size()) {
                continue;  // XOR enqueued literals: run clause propagation
            }
        }

        if (confl != kNoReason) {
            ++stats_.conflicts;
            ++conflicts_this_call;
            ++conflicts_since_restart;
            if (decision_level() == 0) {
                ok_ = false;
                result = Result::kUnsat;
                break;
            }
            int bt_level;
            uint32_t lbd;
            analyze(confl, learnt_clause, bt_level, lbd);
            cancel_until(bt_level);
            record_learnt_fact(learnt_clause);
            if (learnt_clause.size() == 1) {
                enqueue(learnt_clause[0], kNoReason);
            } else {
                const CRef cr = alloc_clause(learnt_clause, /*learnt=*/true);
                Clause& c = clause(cr);
                c.lbd = lbd;
                if (inprocessing_on()) {
                    c.tier = static_cast<uint8_t>(db_mgr_->classify(lbd));
                    c.used = 1;
                    db_mgr_->on_learnt(lbd);
                }
                learnts_.push_back(cr);
                attach_clause(cr);
                cla_bump(c);
                enqueue(learnt_clause[0], cr);
            }
            ++stats_.learnt_clauses;
            if (inprocessing_on() && !window_reconf_done_) {
                // Opening-window LBD observation; once full, give the
                // kAuto rule one mid-call chance to switch profiles.
                window_lbd_sum_ += lbd;
                if (++window_lbd_count_ >=
                    cfg_.inprocess.window_lbd_conflicts) {
                    window_reconf_done_ = true;
                    prev_window_lbd_ =
                        static_cast<double>(window_lbd_sum_) /
                        static_cast<double>(window_lbd_count_);
                    if (cfg_.inprocess.profile ==
                        inprocess::ProfileId::kAuto) {
                        feat_.avg_first_window_lbd = prev_window_lbd_;
                        const inprocess::ProfileId want =
                            inprocess::select_profile(feat_);
                        if (want != active_profile_) apply_profile(want);
                    }
                }
            }
            var_decay_all();
            cla_inc_ /= eff_clause_decay_;

            if (conflict_budget >= 0 && conflicts_this_call >= conflict_budget) {
                result = Result::kUnknown;
                break;
            }
            if (timeout_s > 0 && (stats_.conflicts & 1023) == 0 &&
                timer.seconds() > timeout_s) {
                result = Result::kUnknown;
                break;
            }
            if (stop_requested()) {
                result = Result::kUnknown;
                break;
            }
        } else {
            if (conflicts_since_restart >= restart_limit) {
                ++stats_.restarts;
                ++curr_restarts;
                conflicts_since_restart = 0;
                restart_limit = static_cast<int64_t>(
                    luby(2.0, curr_restarts) * eff_restart_base_);
                cancel_until(0);
                if (inprocessing_on() && cfg_.inprocess.vivify &&
                    eff_vivify_interval_ > 0 &&
                    curr_restarts % static_cast<int>(eff_vivify_interval_) ==
                        0) {
                    const uint64_t budget = vivify_allowance();
                    if (budget > 0) run_vivify_pass(budget);
                    if (!ok_) {
                        result = Result::kUnsat;
                        break;
                    }
                }
                maybe_collect_garbage();
                continue;
            }
            if (inprocessing_on()) {
                if (db_mgr_->should_reduce(problem_clauses_.size())) {
                    db_mgr_->reduce(*this);
                }
            } else if (static_cast<double>(learnts_.size()) >= max_learnts_) {
                reduce_db();
                max_learnts_ *= cfg_.learnt_growth;
            }
            // Re-enqueue any assumption not yet decided (restarts and
            // backjumps may have unwound them) before real branching.
            Lit next = lit_undef();
            bool failed_assumption = false;
            while (decision_level() <
                   static_cast<int>(assumptions.size())) {
                const Lit p = assumptions[decision_level()];
                assert(p.var() < num_vars());
                if (value(p) == LBool::kTrue) {
                    // Already implied: open a dummy level so the remaining
                    // assumptions keep their positions.
                    trail_lim_.push_back(static_cast<int>(trail_.size()));
                } else if (value(p) == LBool::kFalse) {
                    // The clause database refutes this assumption: UNSAT
                    // under assumptions, but the formula itself stays ok.
                    failed_assumption = true;
                    break;
                } else {
                    next = p;
                    break;
                }
            }
            if (failed_assumption) {
                failed_assumptions_.push_back(
                    assumptions[decision_level()]);
                result = Result::kUnsat;
                break;
            }
            if (stop_requested()) {
                result = Result::kUnknown;
                break;
            }
            if (next == lit_undef()) next = pick_branch_lit();
            if (next == lit_undef()) {
                // All variables assigned: a model.
                model_.resize(num_vars());
                for (Var v = 0; v < num_vars(); ++v) model_[v] = value(v);
                result = Result::kSat;
                break;
            }
            ++stats_.decisions;
            trail_lim_.push_back(static_cast<int>(trail_.size()));
            enqueue(next, kNoReason);
        }
    }

    cancel_until(0);
    // Back at level 0 every XOR reason of this call is garbage.
    maybe_collect_garbage();
    // Export new level-0 implied literals as learnt unit facts.
    while (units_reported_ < trail_.size()) {
        learnt_units_.push_back(trail_[units_reported_++]);
    }
    if (inprocessing_on()) publish_search_ticks();
    return result;
}

}  // namespace bosphorus::sat
