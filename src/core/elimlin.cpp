#include "core/elimlin.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "core/linearize.h"

namespace bosphorus::core {

using anf::Polynomial;
using anf::Var;

namespace {

// Occurrence index for one eliminate-substitute round (the occurrence-list
// optimisation of paper section III-B, kept incrementally). A slot names a
// polynomial: work[s] for s < work.size(), else pending[s - work.size()].
// count(v) is exact: the number of live slots whose polynomial contains v.
// A slot list may be stale -- a substitution can cancel v out of a listed
// polynomial, or list a slot twice when v later reappears -- so a visit
// to a slot that no longer contains v rewrites nothing. Both tables are
// indexed by variable id, like AnfSystem's occurrence lists, and reused
// across rounds.
class OccurrenceIndex {
public:
    void clear() {
        std::fill(count_.begin(), count_.end(), 0);
        for (auto& l : slots_) l.clear();
    }

    void add(const std::vector<Var>& vars, uint32_t slot) {
        for (Var v : vars) enter(v, slot);
    }

    void remove(const std::vector<Var>& vars) {
        for (Var v : vars) --count_[v];
    }

    /// The polynomial in `slot` was rewritten, changing its variables by
    /// `d`.
    void update(const anf::VarDelta& d, uint32_t slot) {
        for (Var v : d.removed) --count_[v];
        for (Var v : d.added) enter(v, slot);
    }

    size_t count(Var v) const { return count_[v]; }

    /// Hand over v's slot list; v is being eliminated and never reappears.
    std::vector<uint32_t> take(Var v) { return std::move(slots_[v]); }

private:
    void enter(Var v, uint32_t slot) {
        if (v >= count_.size()) {
            count_.resize(size_t{v} + 1, 0);
            slots_.resize(size_t{v} + 1);
        }
        ++count_[v];
        slots_[v].push_back(slot);
    }

    std::vector<uint32_t> count_;
    std::vector<std::vector<uint32_t>> slots_;
};

}  // namespace

std::vector<Polynomial> run_elimlin(const std::vector<Polynomial>& system,
                                    const ElimLinConfig& cfg, Rng& rng,
                                    ElimLinStats* stats,
                                    const runtime::CancellationToken& cancel) {
    if (system.empty() || cancel.cancelled()) return {};

    const size_t sample_budget = size_t{1} << std::min(cfg.m_budget, 48u);
    const std::vector<size_t> chosen = subsample(system, sample_budget, rng);
    std::vector<Polynomial> work;
    work.reserve(chosen.size());
    for (size_t idx : chosen) work.push_back(system[idx]);

    std::vector<Polynomial> facts;
    // Dedup on the interned representation: PolynomialHash folds the
    // per-term hashes cached in the MonomialStore, so an insert costs one
    // multiply-xor per 4-byte id instead of re-hashing variable vectors.
    std::unordered_set<Polynomial, anf::PolynomialHash> fact_set;
    size_t iterations = 0;
    size_t eliminated = 0;
    OccurrenceIndex index;
    anf::Substitution subst;  // best := rest, one entry at a time
    anf::VarDelta delta;

    auto add_fact = [&](const Polynomial& p) {
        if (p.is_zero()) return;
        if (fact_set.insert(p).second) facts.push_back(p);
    };

    for (; iterations < cfg.max_iterations; ++iterations) {
        // Cancellation boundary: one eliminate-substitute round.
        if (cancel.cancelled()) break;
        // Step (1): GJE on the linearisation.
        Linearization lin = linearize(work);
        reduce(lin);

        // Step (2): gather linear equations from the reduced rows.
        std::vector<Polynomial> linear;
        std::vector<Polynomial> nonlinear;
        bool contradiction = false;
        for (size_t r = 0; r < lin.rows(); ++r) {
            if (lin.matrix.row_is_zero(r)) continue;
            Polynomial p = row_to_polynomial(lin, r);
            if (p.is_one()) {
                contradiction = true;
                break;
            }
            if (p.degree() <= 1) {
                linear.push_back(std::move(p));
            } else {
                nonlinear.push_back(std::move(p));
            }
        }
        if (contradiction) {
            facts.clear();
            facts.push_back(Polynomial::constant(true));
            break;
        }
        if (linear.empty()) break;
        for (const auto& l : linear) add_fact(l);

        // Step (3): eliminate one variable per linear equation by
        // substitution into the linear-free remainder.
        work = std::move(nonlinear);
        std::vector<Polynomial> pending = std::move(linear);
        const size_t n_work = work.size();
        index.clear();
        for (size_t s = 0; s < n_work; ++s)
            index.add(work[s].variables(), static_cast<uint32_t>(s));
        for (size_t lj = 0; lj < pending.size(); ++lj)
            index.add(pending[lj].variables(),
                      static_cast<uint32_t>(n_work + lj));
        for (size_t li = 0; li < pending.size(); ++li) {
            if (cancel.cancelled()) break;  // substitution sub-boundary
            const Polynomial& l = pending[li];  // never rewritten below
            // From here on the index covers work and pending[li+1..].
            const std::vector<Var> cand = l.variables();
            index.remove(cand);
            if (l.is_zero()) continue;
            if (l.is_one()) {
                facts.clear();
                facts.push_back(Polynomial::constant(true));
                return facts;
            }
            if (l.degree() < 1) continue;
            // Pick the candidate occurring in the fewest remaining
            // polynomials (paper's heuristic; first minimum on ties).
            Var best = cand[0];
            size_t best_count = SIZE_MAX;
            for (Var v : cand) {
                if (index.count(v) < best_count) {
                    best = v;
                    best_count = index.count(v);
                }
            }
            // l = best + rest  =>  best := rest, in every listed polynomial
            // that still contains best; pending[..li] is already consumed.
            subst.clear();
            subst.set(best, l + Polynomial::variable(best));
            for (uint32_t s : index.take(best)) {
                if (s >= n_work && s - n_work <= li) continue;
                Polynomial& q = s < n_work ? work[s] : pending[s - n_work];
                if (q.apply(subst, &delta)) index.update(delta, s);
            }
            ++eliminated;
        }
        // Drop zero polynomials created by substitution.
        work.erase(std::remove_if(work.begin(), work.end(),
                                  [](const Polynomial& p) {
                                      return p.is_zero();
                                  }),
                   work.end());
        if (work.empty()) break;
    }

    if (stats) {
        stats->sampled_equations = chosen.size();
        stats->iterations = iterations;
        stats->eliminated_vars = eliminated;
        stats->facts = facts.size();
    }
    return facts;
}

}  // namespace bosphorus::core
