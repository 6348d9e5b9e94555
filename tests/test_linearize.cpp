// The lineariser and XL's direct expansion against brute-force specs, and
// the per-thread MonoId mark table they share.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "anf/monomial_store.h"
#include "core/linearize.h"
#include "core/xl.h"
#include "runtime/cancellation.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus::core {
namespace {

using anf::MonoId;
using anf::Monomial;
using anf::Polynomial;
using anf::Var;

using Content = std::vector<Var>;

Content content(const Monomial& m) {
    return Content(m.vars().begin(), m.vars().end());
}

/// Descending deg-lex on content: degree first, then the variable lists.
bool desc_deg_lex(const Content& a, const Content& b) {
    if (a.size() != b.size()) return a.size() > b.size();
    return a > b;
}

/// The spec of linearize(): the columns are the system's distinct
/// monomials in descending deg-lex order, and row r has exactly the bits
/// of polys[r]'s terms. Ids are never consulted.
::testing::AssertionResult matches_spec(const Linearization& lin,
                                        const std::vector<Polynomial>& polys) {
    std::vector<Content> cols;
    for (const auto& p : polys)
        for (const auto& m : p.monomials()) cols.push_back(content(m));
    std::sort(cols.begin(), cols.end(), desc_deg_lex);
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    std::map<Content, size_t> col_of;
    for (size_t c = 0; c < cols.size(); ++c) col_of[cols[c]] = c;

    if (lin.rows() != polys.size() || lin.cols() != cols.size() ||
        lin.col_monomial.size() != cols.size())
        return ::testing::AssertionFailure()
               << "shape " << lin.rows() << "x" << lin.cols() << ", spec "
               << polys.size() << "x" << cols.size();
    for (size_t c = 0; c < cols.size(); ++c)
        if (content(lin.col_monomial[c]) != cols[c])
            return ::testing::AssertionFailure() << "column " << c;
    for (size_t r = 0; r < polys.size(); ++r) {
        std::vector<bool> bits(cols.size(), false);
        for (const auto& m : polys[r].monomials())
            bits[col_of[content(m)]] = true;
        for (size_t c = 0; c < cols.size(); ++c)
            if (lin.matrix.get(r, c) != bits[c])
                return ::testing::AssertionFailure()
                       << "bit (" << r << ", " << c << ")";
    }
    return ::testing::AssertionSuccess();
}

/// A random polynomial of degree <= 3 over variables base..base+nv-1,
/// with 0..5 terms before cancellation.
Polynomial random_poly(Rng& rng, Var base, unsigned nv) {
    std::vector<Monomial> terms;
    for (size_t t = rng.below(6); t-- > 0;) {
        std::vector<Var> vars;
        for (size_t d = rng.below(4); d-- > 0;)
            vars.push_back(base + static_cast<Var>(rng.below(nv)));
        terms.push_back(Monomial(std::move(vars)));
    }
    return Polynomial(std::move(terms));
}

/// A random system with the corner cases mixed in: empty polynomials, the
/// constant 1 and repeated polynomials.
std::vector<Polynomial> random_system(Rng& rng, Var base = 0) {
    std::vector<Polynomial> polys;
    const unsigned nv = 2 + static_cast<unsigned>(rng.below(8));
    for (size_t i = rng.below(12); i-- > 0;) {
        switch (rng.below(8)) {
            case 0: polys.push_back(Polynomial()); break;
            case 1: polys.push_back(Polynomial::constant(true)); break;
            case 2:
                if (!polys.empty()) {
                    polys.push_back(polys[rng.below(polys.size())]);
                    break;
                }
                [[fallthrough]];
            default: polys.push_back(random_poly(rng, base, nv));
        }
    }
    return polys;
}

TEST(Linearize, MatchesBruteForceSpec) {
    Rng rng(testutil::test_seed() * 7919 + 1);
    for (int iter = 0; iter < 300; ++iter) {
        const auto polys = random_system(rng);
        ASSERT_TRUE(matches_spec(linearize(polys), polys)) << iter;
        // The same system again (every mark must have been cleared), and
        // the system twice over.
        ASSERT_TRUE(matches_spec(linearize(polys), polys)) << iter;
        std::vector<Polynomial> twice = polys;
        twice.insert(twice.end(), polys.begin(), polys.end());
        ASSERT_TRUE(matches_spec(linearize(twice), twice)) << iter;
    }
    EXPECT_TRUE(matches_spec(linearize(std::vector<Polynomial>{}), {}));
    const std::vector<Polynomial> corner = {Polynomial(),
                                            Polynomial::constant(true),
                                            Polynomial::constant(true)};
    EXPECT_TRUE(matches_spec(linearize(corner), corner));
}

TEST(Linearize, TermRowsMatchPolynomials) {
    // The flat buffer takes each row's terms in any order.
    Rng rng(testutil::test_seed() * 7919 + 2);
    for (int iter = 0; iter < 100; ++iter) {
        const auto polys = random_system(rng);
        TermRows rows;
        for (const auto& p : polys) {
            const size_t start = rows.terms.size();
            for (const auto& m : p.monomials()) rows.terms.push_back(m.id());
            std::reverse(rows.terms.begin() + start, rows.terms.end());
            rows.offsets.push_back(rows.terms.size());
        }
        ASSERT_TRUE(matches_spec(linearize(rows), polys)) << iter;
    }
}

TEST(Linearize, TwoThreadsAtOnce) {
    // Each thread has its own mark table. One thread interns fresh
    // monomials as it goes, so the store grows under the other's marks.
    std::atomic<int> failures{0};
    auto worker = [&failures](uint64_t seed, Var base, bool fresh) {
        Rng rng(seed);
        for (int iter = 0; iter < 200; ++iter) {
            const Var b = fresh ? base + static_cast<Var>(iter) * 16 : base;
            const auto polys = random_system(rng, b);
            if (!matches_spec(linearize(polys), polys)) ++failures;
        }
    };
    std::thread a(worker, testutil::test_seed() * 31 + 1, Var{0}, false);
    std::thread b(worker, testutil::test_seed() * 31 + 2, Var{700000}, true);
    a.join();
    b.join();
    EXPECT_EQ(failures.load(), 0);
}

// ---- subsample() and linearized_size() against their hashed originals ----

std::vector<size_t> hashed_subsample(const std::vector<Polynomial>& polys,
                                     size_t budget, Rng& rng) {
    std::vector<size_t> order(polys.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    std::unordered_set<MonoId> monos;
    std::vector<size_t> chosen;
    for (size_t idx : order) {
        chosen.push_back(idx);
        for (const auto& m : polys[idx].monomials()) monos.insert(m.id());
        if (chosen.size() * monos.size() >= budget) break;
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

TEST(Linearize, SubsampleAndSizeMatchHashedSpec) {
    Rng rng(testutil::test_seed() * 7919 + 3);
    for (int iter = 0; iter < 200; ++iter) {
        const auto polys = random_system(rng);
        std::unordered_set<MonoId> monos;
        for (const auto& p : polys)
            for (const auto& m : p.monomials()) monos.insert(m.id());
        EXPECT_EQ(linearized_size(polys), polys.size() * monos.size());
        for (size_t budget : {size_t{1}, size_t{8}, size_t{30}, size_t{200}}) {
            const uint64_t seed = rng.next();
            Rng a(seed), b(seed);
            ASSERT_EQ(subsample(polys, budget, a),
                      hashed_subsample(polys, budget, b))
                << iter << " budget " << budget;
        }
    }
}

// ---- XL's direct expansion against the product loop -----------------------

/// expand_xl() as it was written before it expanded into a rows buffer:
/// every product built as a canonical Polynomial, the budget counting
/// distinct monomials in an id set, all-cancelled products skipped.
struct SpecExpansion {
    std::vector<Polynomial> rows;
    size_t sampled = 0;
    bool stopped_mid_batch = false;  // the budget stopped inside a batch
    size_t cancelled_products = 0;
};

SpecExpansion spec_expand(const std::vector<Polynomial>& system,
                          const XlConfig& cfg, Rng& rng) {
    SpecExpansion out;
    const size_t sample_budget = size_t{1} << std::min(cfg.m_budget, 48u);
    const size_t expand_budget = size_t{1}
                                 << std::min(cfg.m_budget + cfg.delta_m, 52u);
    std::vector<Polynomial> sampled;
    for (size_t idx : subsample(system, sample_budget, rng))
        sampled.push_back(system[idx]);
    std::stable_sort(sampled.begin(), sampled.end(),
                     [](const Polynomial& a, const Polynomial& b) {
                         return a.degree() < b.degree();
                     });
    out.sampled = sampled.size();

    // Multipliers of degree 1..min(D, 3), ascending deg-lex.
    const std::vector<Var> vars = anf::variables(sampled);
    const size_t n = vars.size();
    std::vector<Monomial> muls;
    for (size_t i = 0; i < n; ++i) muls.push_back(Monomial(vars[i]));
    if (cfg.degree >= 2)
        for (size_t i = 0; i < n; ++i)
            for (size_t j = i + 1; j < n; ++j)
                muls.push_back(Monomial(std::vector<Var>{vars[i], vars[j]}));
    if (cfg.degree >= 3)
        for (size_t i = 0; i < n; ++i)
            for (size_t j = i + 1; j < n; ++j)
                for (size_t k = j + 1; k < n; ++k)
                    muls.push_back(Monomial(
                        std::vector<Var>{vars[i], vars[j], vars[k]}));

    out.rows = sampled;
    std::unordered_set<MonoId> monos;
    for (const auto& p : out.rows)
        for (const auto& m : p.monomials()) monos.insert(m.id());
    auto size_ok = [&]() {
        return out.rows.size() * std::max<size_t>(monos.size(), 1) <
               expand_budget;
    };
    for (const auto& p : sampled) {
        if (!size_ok()) break;
        bool keep_going = true;
        for (size_t i = 0; i < muls.size() && keep_going; ++i) {
            Polynomial prod = p * muls[i];
            if (prod.is_zero()) {
                ++out.cancelled_products;
            } else {
                for (const auto& m : prod.monomials()) monos.insert(m.id());
                out.rows.push_back(std::move(prod));
            }
            keep_going = size_ok();
            if (!keep_going && i + 1 < muls.size())
                out.stopped_mid_batch = true;
        }
        if (!keep_going) break;
    }
    return out;
}

TEST(XlExpansion, MatchesProductSpec) {
    Rng rng(testutil::test_seed() * 7919 + 4);
    // Products that cancel, wholly or in part: (x1 + x1x2) * x2 = 0.
    std::vector<Polynomial> cancelling = {
        Polynomial(std::vector<Monomial>{Monomial(Var{1}),
                                         Monomial(std::vector<Var>{1, 2})}),
        Polynomial(std::vector<Monomial>{
            Monomial(Var{1}), Monomial(Var{3}),
            Monomial(std::vector<Var>{1, 2}),
            Monomial(std::vector<Var>{2, 3})}),
        Polynomial(std::vector<Monomial>{Monomial(std::vector<Var>{2, 3}),
                                         Monomial(Var{4}), Monomial()})};
    size_t mid_batch = 0, cancelled = 0, cases = 0;
    for (int iter = 0; iter < 40; ++iter) {
        std::vector<Polynomial> system =
            iter == 0 ? cancelling : random_system(rng);
        if (iter % 3 == 1)
            system.insert(system.end(), cancelling.begin(), cancelling.end());
        for (unsigned degree = 1; degree <= 3; ++degree) {
            for (unsigned m = 2; m <= 9; m += 1 + iter % 2) {
                XlConfig cfg;
                cfg.degree = degree;
                cfg.m_budget = m;
                cfg.delta_m = static_cast<unsigned>(rng.below(4));
                const uint64_t seed = rng.next();
                Rng a(seed), b(seed);
                size_t sampled = 0;
                const Linearization lin =
                    expand_xl(system, cfg, a, {}, &sampled);
                const SpecExpansion spec = spec_expand(system, cfg, b);
                if (system.empty()) {
                    EXPECT_EQ(lin.rows(), 0u);
                    continue;
                }
                ++cases;
                mid_batch += spec.stopped_mid_batch;
                cancelled += spec.cancelled_products > 0;
                ASSERT_EQ(sampled, spec.sampled) << iter;
                ASSERT_EQ(lin.rows(), spec.rows.size()) << iter;
                ASSERT_TRUE(matches_spec(lin, spec.rows)) << iter;
            }
        }
    }
    // The cases this test exists for were all reached.
    EXPECT_GT(mid_batch, 0u);
    EXPECT_GT(cancelled, 0u);
    EXPECT_LT(mid_batch, cases);
}

// ---- the mark table -------------------------------------------------------

/// Every mark of the current store is zero.
bool table_clean() {
    MonoMarks marks;
    const size_t n = anf::MonomialStore::global().size();
    for (size_t id = 0; id < n; ++id)
        if (marks[static_cast<MonoId>(id)] != 0) return false;
    return true;
}

TEST(MonoMarks, ThrowingScopeLeavesTableClean) {
    const std::vector<Polynomial> polys = {
        Polynomial(std::vector<Monomial>{Monomial(std::vector<Var>{1, 2}),
                                         Monomial(Var{3}), Monomial()}),
        Polynomial(std::vector<Monomial>{Monomial(Var{2}), Monomial(Var{3})})};
    const Linearization fresh = linearize(polys);
    EXPECT_THROW(
        {
            MonoMarks marks;
            for (const auto& p : polys)
                for (const auto& m : p.monomials()) marks[m.id()] = 5;
            // An id interned while the scope is open grows the table.
            marks[Monomial(std::vector<Var>{800001, 800002}).id()] = 7;
            throw std::runtime_error("boom");
        },
        std::runtime_error);
    EXPECT_TRUE(table_clean());
    const Linearization again = linearize(polys);
    EXPECT_EQ(again.col_monomial, fresh.col_monomial);
    EXPECT_EQ(again.matrix, fresh.matrix);
}

TEST(MonoMarks, NestedScopeThrows) {
    MonoMarks outer;
    outer[anf::kMonoOne] = 3;
    EXPECT_THROW(MonoMarks inner, std::logic_error);
    EXPECT_THROW(linearize({Polynomial::constant(true)}), std::logic_error);
    EXPECT_EQ(outer[anf::kMonoOne], 3u);
}

TEST(MonoMarks, CancelledExpansionLeavesTableClean) {
    Rng rng(testutil::test_seed() * 7919 + 5);
    std::vector<Polynomial> system;
    for (int i = 0; i < 30; ++i) system.push_back(random_poly(rng, 0, 10));
    XlConfig cfg;
    cfg.m_budget = 20;
    Rng fresh_rng(9);
    const Linearization fresh = expand_xl(system, cfg, fresh_rng);
    ASSERT_GT(fresh.rows(), system.size());

    // Cancel at the third source polynomial's batch: the expansion has
    // marked terms by then.
    int polls = 0;
    const auto token = runtime::CancellationToken::linked(
        {}, [&polls] { return ++polls > 3; });
    Rng cancelled_rng(9);
    EXPECT_EQ(expand_xl(system, cfg, cancelled_rng, token).rows(), 0u);
    EXPECT_EQ(polls, 4);
    EXPECT_TRUE(table_clean());

    Rng again_rng(9);
    const Linearization again = expand_xl(system, cfg, again_rng);
    EXPECT_EQ(again.col_monomial, fresh.col_monomial);
    EXPECT_EQ(again.matrix, fresh.matrix);
}

}  // namespace
}  // namespace bosphorus::core
