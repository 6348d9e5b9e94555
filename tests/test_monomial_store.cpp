// MonomialStore unit tests: intern idempotence, mul memoisation, deg-lex
// order, and independence of the semantics from interning order (id
// values may differ between stores; compare/hash must not).
#include "anf/monomial_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "anf/monomial.h"
#include "util/rng.h"

namespace bosphorus::anf {
namespace {

std::vector<Var> random_vars(Rng& rng, unsigned num_vars, unsigned max_deg) {
    std::vector<Var> vs;
    const size_t d = rng.below(max_deg + 1);
    for (size_t i = 0; i < d; ++i)
        vs.push_back(static_cast<Var>(rng.below(num_vars)));
    return vs;  // unsorted, may contain duplicates -- intern() canonicalises
}

std::vector<Var> canonical(std::vector<Var> vs) {
    std::sort(vs.begin(), vs.end());
    vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
    return vs;
}

TEST(MonomialStore, OneIsAlwaysIdZero) {
    MonomialStore store;
    EXPECT_EQ(store.intern({}), kMonoOne);
    EXPECT_EQ(store.degree(kMonoOne), 0u);
    EXPECT_TRUE(store.vars(kMonoOne).empty());
    // And the global store agrees (a default Monomial is the constant 1).
    EXPECT_EQ(Monomial().id(), kMonoOne);
    EXPECT_TRUE(Monomial().is_one());
}

TEST(MonomialStore, InternIsIdempotent) {
    MonomialStore store;
    const MonoId a = store.intern({3, 1, 2});
    const MonoId b = store.intern({1, 2, 3});
    const MonoId c = store.intern({2, 2, 3, 1, 1});  // x^2 = x
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
    EXPECT_EQ(store.vars(a), (std::vector<Var>{1, 2, 3}));
    EXPECT_EQ(store.degree(a), 3u);
    const size_t before = store.size();
    store.intern({3, 2, 1});
    EXPECT_EQ(store.size(), before) << "re-interning must not grow the store";
}

TEST(MonomialStore, MulIsUnionAndMemoised) {
    MonomialStore store;
    const MonoId a = store.intern({0, 2});
    const MonoId b = store.intern({1, 2});
    const MonoId ab = store.mul(a, b);
    EXPECT_EQ(store.vars(ab), (std::vector<Var>{0, 1, 2}));
    EXPECT_EQ(store.mul(a, kMonoOne), a) << "1 is the unit";
    EXPECT_EQ(store.mul(kMonoOne, b), b);
    EXPECT_EQ(store.mul(a, a), a) << "idempotent: m * m = m over GF(2)";
    // Same product again: answered from the memo (per-thread front cache
    // or the store table), and commutatively.
    const size_t misses = store.mul_memo_misses();
    EXPECT_EQ(store.mul(a, b), ab);
    EXPECT_EQ(store.mul(b, a), ab);
    EXPECT_EQ(store.mul_memo_misses(), misses)
        << "a repeated product must not recompute the union";
    EXPECT_GE(store.mul_memo_hits(), 1u);
}

TEST(MonomialStore, QuotientWithoutDividesContains) {
    MonomialStore store;
    const MonoId abc = store.intern({0, 1, 2});
    const MonoId ac = store.intern({0, 2});
    EXPECT_TRUE(store.divides(ac, abc));
    EXPECT_FALSE(store.divides(abc, ac));
    EXPECT_TRUE(store.divides(kMonoOne, ac)) << "1 divides everything";
    EXPECT_EQ(store.quotient(abc, ac), store.intern({1}));
    EXPECT_EQ(store.quotient(abc, abc), kMonoOne);
    EXPECT_EQ(store.without(abc, 1), ac);
    EXPECT_TRUE(store.contains(abc, 1));
    EXPECT_FALSE(store.contains(ac, 1));
}

TEST(MonomialStore, DegLexCompare) {
    MonomialStore store;
    const MonoId one = kMonoOne;
    const MonoId x0 = store.intern({0});
    const MonoId x1 = store.intern({1});
    const MonoId x01 = store.intern({0, 1});
    EXPECT_TRUE(store.less(one, x0));
    EXPECT_TRUE(store.less(x0, x1));
    EXPECT_TRUE(store.less(x1, x01)) << "degree dominates lex";
    EXPECT_EQ(store.compare(x0, x0), 0);
    EXPECT_LT(store.compare(x0, x01), 0);
    EXPECT_GT(store.compare(x01, x1), 0);
}

TEST(MonomialStore, SemanticsIndependentOfInterningOrder) {
    // Intern the same vocabulary into two stores in opposite orders: the
    // raw id values differ, but compare() and hash() agree --
    // the property that keeps all observable output independent of store
    // history.
    Rng rng(7);
    std::vector<std::vector<Var>> vocab;
    for (int i = 0; i < 200; ++i)
        vocab.push_back(canonical(random_vars(rng, 10, 4)));

    MonomialStore fwd, rev;
    std::vector<MonoId> fwd_ids, rev_ids;
    for (const auto& vs : vocab)
        fwd_ids.push_back(
            fwd.intern_sorted(vs.data(), static_cast<uint32_t>(vs.size())));
    for (auto it = vocab.rbegin(); it != vocab.rend(); ++it)
        rev_ids.push_back(
            rev.intern_sorted(it->data(), static_cast<uint32_t>(it->size())));
    std::reverse(rev_ids.begin(), rev_ids.end());  // align with vocab order

    for (size_t i = 0; i < vocab.size(); ++i) {
        EXPECT_EQ(fwd.hash(fwd_ids[i]), rev.hash(rev_ids[i]))
            << "content hash must not depend on interning order";
        for (size_t j = 0; j < vocab.size(); ++j) {
            const int c1 = fwd.compare(fwd_ids[i], fwd_ids[j]);
            const int c2 = rev.compare(rev_ids[i], rev_ids[j]);
            EXPECT_EQ(c1 < 0, c2 < 0);
            EXPECT_EQ(c1 == 0, c2 == 0);
        }
    }
}

TEST(MonomialStore, HashMatchesLegacyChain) {
    // The cached hash must reproduce the pre-interning Monomial::hash()
    // exactly (FNV-style chain), so dedup behaviour is unchanged.
    MonomialStore store;
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        const std::vector<Var> vs = canonical(random_vars(rng, 20, 5));
        uint64_t h = 0x9E3779B97F4A7C15ULL;
        for (Var v : vs) h = (h ^ v) * 0x100000001B3ULL;
        EXPECT_EQ(store.hash(store.intern(vs)), h);
    }
}

// compare() decides on the cached order key first; the key saturates on
// huge variables and degrees, where the full comparison must take over.
TEST(MonomialStore, CompareMatchesDegLexBeyondOrderKeyRange) {
    MonomialStore store;
    const Var big = (Var{1} << 28) - 2;  // straddles the key's clamp
    Rng rng(11);
    std::vector<std::vector<Var>> sets;
    for (int i = 0; i < 300; ++i) {
        std::vector<Var> vs;
        const size_t d = rng.below(5);
        for (size_t j = 0; j < d; ++j) {
            const Var v = static_cast<Var>(rng.below(4));
            vs.push_back(rng.below(2) ? v : big + v);
        }
        sets.push_back(canonical(vs));
    }
    for (Var base : {Var{0}, big}) {  // degrees around the key's cap
        for (size_t d : {254, 255, 256}) {
            std::vector<Var> vs(d);
            for (size_t j = 0; j < d; ++j) vs[j] = base + static_cast<Var>(j);
            sets.push_back(vs);
            vs.back() += 1;
            sets.push_back(vs);
        }
    }
    auto reference = [](const std::vector<Var>& a, const std::vector<Var>& b) {
        if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
        if (a == b) return 0;
        return a < b ? -1 : 1;
    };
    for (const auto& a : sets) {
        for (const auto& b : sets) {
            const MonoId ia = store.intern(a), ib = store.intern(b);
            ASSERT_EQ(store.compare(ia, ib), reference(a, b));
            if (store.order_key(ia) < store.order_key(ib))
                ASSERT_LT(reference(a, b), 0) << "order key not monotone";
        }
    }
}

// At its entry cap the store refuses fresh monomials in every build, from
// every interning path, and stays usable for the ones it has.
TEST(MonomialStore, ExhaustionThrowsInsteadOfOverrunning) {
    MonomialStore store(5);  // the constant 1 plus four more
    const MonoId x0 = store.intern({0});
    const MonoId x1 = store.intern({1});
    const MonoId x2 = store.intern_var(2);
    const MonoId x012 = store.intern({0, 1, 2});
    ASSERT_EQ(store.size(), 5u);

    EXPECT_THROW(store.intern({3}), std::length_error);
    EXPECT_THROW(store.intern_var(3), std::length_error);
    EXPECT_THROW(store.mul(x0, x1), std::length_error);         // x0*x1
    EXPECT_THROW(store.without(x012, 2), std::length_error);    // x0*x1
    EXPECT_THROW(store.quotient(x012, x2), std::length_error);  // x0*x1
    EXPECT_EQ(store.size(), 5u) << "a refused intern must not grow the store";

    EXPECT_EQ(store.intern({1}), x1);
    EXPECT_EQ(store.mul(x0, x012), x012);
    EXPECT_EQ(store.without(x0, 0), kMonoOne);
    EXPECT_EQ(store.vars(x012), (std::vector<Var>{0, 1, 2}));
}

TEST(MonomialStore, GlobalStoreIsAppendOnly) {
    auto& store = MonomialStore::global();
    const size_t before = store.size();
    const Monomial m(std::vector<Var>{900001, 900002});
    EXPECT_GE(store.size(), before + 1);
    EXPECT_EQ(Monomial(std::vector<Var>{900002, 900001}), m)
        << "hash-consing: same content, same id";
}

}  // namespace
}  // namespace bosphorus::anf
