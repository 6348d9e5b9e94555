#include "sat/inprocess/clause_db.h"

#include <algorithm>
#include <vector>

#include "sat/solver.h"

namespace bosphorus::sat::inprocess {

ClauseDbManager::ClauseDbManager(const InprocessConfig& cfg) : cfg_(cfg) {}

ClauseDbManager::~ClauseDbManager() {
    // Unregister this solver's share of the global tier gauges.
    auto& g = counters();
    g.tier_core.fetch_sub(static_cast<int64_t>(published_.core),
                          std::memory_order_relaxed);
    g.tier_mid.fetch_sub(static_cast<int64_t>(published_.mid),
                         std::memory_order_relaxed);
    g.tier_local.fetch_sub(static_cast<int64_t>(published_.local),
                           std::memory_order_relaxed);
}

Tier ClauseDbManager::classify(uint32_t lbd) const {
    if (lbd <= cfg_.core_lbd_cut) return kCore;
    if (lbd <= cfg_.mid_lbd_cut) return kMid;
    return kLocal;
}

namespace {
size_t& tier_slot(ClauseDbManager::TierCounts& tc, Tier t) {
    switch (t) {
        case kCore: return tc.core;
        case kMid: return tc.mid;
        default: return tc.local;
    }
}
}  // namespace

void ClauseDbManager::on_learnt(uint32_t lbd) {
    ++tier_slot(counts_, classify(lbd));
}

Tier ClauseDbManager::on_lbd_improved(Tier old_tier, uint32_t new_lbd) {
    const Tier nt = classify(new_lbd);
    if (nt >= old_tier) return old_tier;  // promote only, never demote here
    --tier_slot(counts_, old_tier);
    ++tier_slot(counts_, nt);
    return nt;
}

Tier ClauseDbManager::on_vivified(Tier old_tier, uint32_t new_lbd) {
    return on_lbd_improved(old_tier, new_lbd);
}

void ClauseDbManager::on_removed(Tier tier) { --tier_slot(counts_, tier); }

bool ClauseDbManager::should_reduce(size_t problem_clauses) {
    if (local_cap_ <= 0) {
        // Seeded once with the legacy formula; unlike the legacy cap it is
        // never reset on subsequent solve calls.
        local_cap_ = std::max(static_cast<double>(problem_clauses) / 3.0,
                              static_cast<double>(cfg_.local_cap_min));
    }
    return static_cast<double>(counts_.local) >= local_cap_;
}

void ClauseDbManager::reduce(Solver& s) {
    ++reductions_;
    ++s.stats_.db_reductions;
    counters().db_reductions.fetch_add(1, std::memory_order_relaxed);

    // Pass 1: tier maintenance. Survivors of the local tier that were
    // used since the last reduction move up to mid; mid clauses that sat
    // idle too long drop back to local. Core is permanent.
    for (const Solver::CRef cr : s.learnts_) {
        Solver::Clause& c = s.clause(cr);
        if (c.deleted) continue;
        if (c.tier == kMid) {
            if (c.used) {
                c.idle = 0;
            } else if (++c.idle > cfg_.mid_idle_limit) {
                c.tier = kLocal;
                c.idle = 0;
                --counts_.mid;
                ++counts_.local;
            }
        } else if (c.tier == kLocal && c.used) {
            c.tier = kMid;
            c.idle = 0;
            --counts_.local;
            ++counts_.mid;
        }
        c.used = 0;
    }

    // Pass 2: delete the worst-ranked half of the local tier. Ranking is
    // (LBD desc, activity asc, cref asc) -- fully deterministic.
    std::vector<Solver::CRef> cand;
    for (const Solver::CRef cr : s.learnts_) {
        const Solver::Clause& c = s.clause(cr);
        if (!c.deleted && c.tier == kLocal) cand.push_back(cr);
    }
    std::sort(cand.begin(), cand.end(),
              [&s](Solver::CRef a, Solver::CRef b) {
                  const Solver::Clause& ca = s.clause(a);
                  const Solver::Clause& cb = s.clause(b);
                  if (ca.lbd != cb.lbd) return ca.lbd > cb.lbd;
                  if (ca.activity != cb.activity)
                      return ca.activity < cb.activity;
                  return a < b;
              });
    const size_t target = cand.size() / 2;
    size_t removed = 0;
    for (const Solver::CRef cr : cand) {
        if (removed >= target) break;
        const Solver::Clause& c = s.clause(cr);
        // Backstop protections. The tier policy keeps glue (LBD <= 2,
        // which classify() places in core under any sane cut) out of the
        // local tier entirely, so these vetoes must never fire -- the
        // invariant tests pin both counters to 0.
        if (c.lbd <= 2 || c.size() <= 2) {
            ++glue_vetoes_;
            continue;
        }
        const bool locked = s.var_reason_[c[0].var()] == cr &&
                            s.value(c[0]) == LBool::kTrue;
        if (locked) {
            ++locked_vetoes_;
            continue;
        }
        s.remove_clause(cr);
        --counts_.local;
        ++removed;
    }

    // Compact the learnt list (reduce() is the only place local-tier
    // clauses die in bulk; vivification deletions are compacted by the
    // vivifier itself).
    std::vector<Solver::CRef> kept;
    kept.reserve(s.learnts_.size() - removed);
    for (const Solver::CRef cr : s.learnts_) {
        if (!s.clause(cr).deleted) kept.push_back(cr);
    }
    s.learnts_ = std::move(kept);

    local_cap_ *= cfg_.local_cap_growth;
    publish_gauges();
}

void ClauseDbManager::apply_profile(const SolverProfile& p) {
    cfg_.core_lbd_cut = p.core_lbd_cut;
    cfg_.mid_lbd_cut = p.mid_lbd_cut;
    cfg_.local_cap_growth = p.local_cap_growth;
}

void ClauseDbManager::publish_gauges() {
    auto& g = counters();
    g.tier_core.fetch_add(static_cast<int64_t>(counts_.core) -
                              static_cast<int64_t>(published_.core),
                          std::memory_order_relaxed);
    g.tier_mid.fetch_add(static_cast<int64_t>(counts_.mid) -
                             static_cast<int64_t>(published_.mid),
                         std::memory_order_relaxed);
    g.tier_local.fetch_add(static_cast<int64_t>(counts_.local) -
                               static_cast<int64_t>(published_.local),
                           std::memory_order_relaxed);
    published_ = counts_;
}

}  // namespace bosphorus::sat::inprocess
