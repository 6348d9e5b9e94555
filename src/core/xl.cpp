#include "core/xl.h"

#include <algorithm>
#include <numeric>

#include "core/linearize.h"

namespace bosphorus::core {

using anf::MonoId;
using anf::Monomial;
using anf::Polynomial;
using anf::Var;

namespace {

/// Multiplier monomials of degree 1..max_degree over `vars`, in ascending
/// deg-lex order, enumerated LAZILY: a multiplier is only constructed
/// (and thus interned into the process-global store) the first time some
/// source polynomial actually reaches it, so a budget that stops the
/// expansion after a few products never pays for -- or permanently
/// interns -- the O(|vars|^degree) tail. Multipliers already produced are
/// cached as ids and replayed for free for the later source polynomials.
class Multipliers {
public:
    Multipliers(const std::vector<Var>& vars, unsigned max_degree)
        : vars_(vars), max_degree_(std::min(max_degree, 3u)) {}

    /// Invoke fn(multiplier) in ascending deg-lex order until fn returns
    /// false or the multipliers run out.
    template <typename Fn>
    void for_each(Fn&& fn) {
        for (size_t i = 0;; ++i) {
            if (i == cache_.size() && !advance()) return;
            if (!fn(cache_[i])) return;
        }
    }

private:
    /// Generate the next multiplier into the cache: the next ascending
    /// combination of variable indices of the current degree, else the
    /// first of the next degree. False when exhausted.
    bool advance() {
        const size_t n = vars_.size();
        size_t k = idx_.size();
        size_t i = k;  // bump the rightmost index that can still grow
        while (i > 0 && idx_[i - 1] == n - k + i - 1) --i;
        if (i > 0) {
            ++idx_[i - 1];
            for (; i < k; ++i) idx_[i] = idx_[i - 1] + 1;
        } else {
            if (++k > max_degree_ || k > n) return false;
            idx_.resize(k);
            std::iota(idx_.begin(), idx_.end(), size_t{0});
        }
        std::vector<Var> m;
        for (size_t j : idx_) m.push_back(vars_[j]);
        cache_.push_back(Monomial(std::move(m)));
        return true;
    }

    const std::vector<Var>& vars_;
    unsigned max_degree_;  // XL beyond D=3 explodes; the paper uses D=1.
    std::vector<Monomial> cache_;  // interned ids, in generation order
    std::vector<size_t> idx_;      // the last multiplier's variable indices
};

}  // namespace

Linearization expand_xl(const std::vector<Polynomial>& system,
                        const XlConfig& cfg, Rng& rng,
                        const runtime::CancellationToken& cancel,
                        size_t* sampled_equations) {
    if (system.empty() || cancel.cancelled()) return {};

    const size_t sample_budget = size_t{1} << std::min(cfg.m_budget, 48u);
    const size_t expand_budget = size_t{1}
                                 << std::min(cfg.m_budget + cfg.delta_m, 52u);

    // 1. Uniform subsample to ~2^M linearised size.
    const std::vector<size_t> chosen = subsample(system, sample_budget, rng);
    std::vector<Polynomial> sampled;
    sampled.reserve(chosen.size());
    for (size_t idx : chosen) sampled.push_back(system[idx]);
    // Ascending degree order for the expansion pass.
    std::stable_sort(sampled.begin(), sampled.end(),
                     [](const Polynomial& a, const Polynomial& b) {
                         return a.degree() < b.degree();
                     });

    // Variables of the sampled subsystem are the multiplier alphabet.
    const std::vector<Var> vars = anf::variables(sampled);

    // Multipliers are enumerated lazily (ascending deg-lex, as before)
    // and the ones actually reached are cached as interned ids, shared
    // across every source polynomial.
    Multipliers muls(vars, cfg.degree);

    // 2. Incremental expansion, capped at ~2^(M + deltaM) bits: the
    // sampled rows, then each product's terms written straight into the
    // rows buffer. A mark's kParity bit cancels repeated terms within one
    // product ((x + xy) * y = 0); its kSeen bit counts the distinct
    // monomials of the rows kept so far.
    constexpr uint32_t kParity = 1, kSeen = 2;
    TermRows rows;
    {
        MonoMarks marks;
        size_t distinct = 0;
        auto keep = [&](MonoId id) {
            uint32_t& m = marks[id];
            distinct += !(m & kSeen);
            m = kSeen;  // a repeat of a kept term now reads even parity
            rows.terms.push_back(id);
        };
        auto size_ok = [&] {
            return rows.size() * std::max<size_t>(distinct, 1) < expand_budget;
        };
        for (const auto& p : sampled) {
            for (const auto& t : p.monomials()) keep(t.id());
            rows.offsets.push_back(rows.terms.size());
        }
        std::vector<MonoId> prod;
        for (const auto& p : sampled) {
            if (!size_ok()) break;
            // Cancellation boundary: one source polynomial's multiplier
            // batch.
            if (cancel.cancelled()) return {};
            bool keep_going = true;
            muls.for_each([&](const Monomial& mul) {
                prod.clear();
                for (const auto& t : p.monomials()) {
                    prod.push_back((t * mul).id());
                    marks[prod.back()] ^= kParity;
                }
                const size_t start = rows.terms.size();
                for (MonoId id : prod)
                    if (marks[id] & kParity) keep(id);
                if (rows.terms.size() > start)
                    rows.offsets.push_back(rows.terms.size());
                return keep_going = size_ok();
            });
            if (!keep_going) break;
        }
    }
    if (cancel.cancelled()) return {};
    if (sampled_equations) *sampled_equations = sampled.size();
    return linearize(rows);
}

std::vector<Polynomial> run_xl(const std::vector<Polynomial>& system,
                               const XlConfig& cfg, Rng& rng, XlStats* stats,
                               const runtime::CancellationToken& cancel) {
    size_t sampled = 0;
    Linearization lin = expand_xl(system, cfg, rng, cancel, &sampled);

    // 3. Gauss-Jordan elimination on the linearisation.
    // No cancellation check after the elimination: once the expensive
    // reduction has completed, extracting its facts is cheap and they are
    // sound -- a cancelled run keeps them ("facts gathered so far").
    if (lin.rows() == 0 || cancel.cancelled()) return {};
    const size_t rank = reduce(lin);

    std::vector<Polynomial> facts = extract_facts(lin);

    if (stats) {
        stats->sampled_equations = sampled;
        stats->expanded_rows = lin.rows();
        stats->columns = lin.cols();
        stats->rank = rank;
        stats->facts = facts.size();
    }
    return facts;
}

}  // namespace bosphorus::core
