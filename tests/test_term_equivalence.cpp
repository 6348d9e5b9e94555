// Term-algebra suite: the interned Polynomial/Monomial operations are
// checked against a brute-force specification (a polynomial is the set of
// terms that occur an odd number of times, ordered deg-lex) and, since ANF
// is a canonical form, by exhaustive evaluation over every assignment. The
// surrounding machinery (linearise column order, the AnfSystem snapshot
// trail) must be independent of store history.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "anf/monomial_store.h"
#include "anf/polynomial.h"
#include "core/anf_system.h"
#include "core/linearize.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus {
namespace {

using anf::Monomial;
using anf::Polynomial;
using anf::Var;

// A random polynomial as a list of (possibly repeated, unsorted) variable
// lists, one per term.
using PolyDesc = std::vector<std::vector<Var>>;

PolyDesc random_desc(Rng& rng, unsigned num_vars, unsigned max_monos,
                     unsigned max_deg) {
    PolyDesc desc;
    const size_t n = 1 + rng.below(max_monos);
    for (size_t i = 0; i < n; ++i) {
        std::vector<Var> vars;
        const size_t d = rng.below(max_deg + 1);
        for (size_t j = 0; j < d; ++j)
            vars.push_back(static_cast<Var>(rng.below(num_vars)));
        desc.push_back(std::move(vars));
    }
    return desc;
}

Polynomial build(const PolyDesc& desc) {
    std::vector<Monomial> monos;
    monos.reserve(desc.size());
    for (const auto& vs : desc) monos.push_back(Monomial(vs));
    return Polynomial(std::move(monos));
}

// ---- the specification ----------------------------------------------------

/// A term: its variables, sorted, each once (x^2 = x).
using Term = std::vector<Var>;

/// Deg-lex: lower degree first, then lexicographic on the sorted variables.
struct DegLex {
    bool operator()(const Term& a, const Term& b) const {
        if (a.size() != b.size()) return a.size() < b.size();
        return a < b;
    }
};

/// A polynomial: the terms with coefficient 1, ascending deg-lex.
using Spec = std::set<Term, DegLex>;

Term term_of(std::vector<Var> vars) {
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    return vars;
}

Term term_of(const Monomial& m) {
    return Term(m.vars().begin(), m.vars().end());
}

/// Add one term mod 2.
void toggle(Spec& s, const Term& t) {
    if (!s.erase(t)) s.insert(t);
}

Spec spec_of(const PolyDesc& desc) {
    Spec s;
    for (const auto& vs : desc) toggle(s, term_of(vs));
    return s;
}

Term term_mul(const Term& a, const Term& b) {
    Term r;
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(r));
    return r;
}

Spec spec_add(Spec a, const Spec& b) {
    for (const Term& t : b) toggle(a, t);
    return a;
}

Spec spec_mul(const Spec& a, const Spec& b) {
    Spec r;
    for (const Term& s : a)
        for (const Term& t : b) toggle(r, term_mul(s, t));
    return r;
}

Spec spec_substitute(const Spec& a, Var v, const Spec& by) {
    Spec r;
    for (const Term& t : a) {
        if (!std::binary_search(t.begin(), t.end(), v)) {
            toggle(r, t);
            continue;
        }
        Term q = t;
        q.erase(std::find(q.begin(), q.end(), v));
        for (const Term& u : by) toggle(r, term_mul(q, u));
    }
    return r;
}

/// The polynomial's terms in stored order (constant first, leading last).
std::vector<Term> terms_of(const Polynomial& p) {
    std::vector<Term> out;
    for (const Monomial& m : p.monomials()) out.push_back(term_of(m));
    return out;
}

/// The canonical form is the spec's terms in ascending deg-lex order:
/// strictly descending from the leading term, so none repeats.
std::vector<Term> canonical(const Spec& s) { return {s.begin(), s.end()}; }

/// The spec printed leading term first, as Polynomial::to_string does.
std::string render(const Spec& s) {
    if (s.empty()) return "0";
    std::string out;
    for (auto it = s.rbegin(); it != s.rend(); ++it) {
        if (!out.empty()) out += " + ";
        if (it->empty()) out += "1";
        for (size_t i = 0; i < it->size(); ++i)
            out += (i ? "*x" : "x") + std::to_string((*it)[i] + 1);
    }
    return out;
}

/// The store's content hash: h0 = 0x9E3779B97F4A7C15, then
/// h = (h ^ v) * 0x100000001B3 over the sorted variables.
uint64_t hash_chain(const Term& t) {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (Var v : t) h = (h ^ v) * 0x100000001B3ULL;
    return h;
}

std::vector<bool> assignment_of(uint32_t bits, unsigned num_vars) {
    std::vector<bool> a(num_vars);
    for (unsigned v = 0; v < num_vars; ++v) a[v] = (bits >> v) & 1;
    return a;
}

class TermAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(TermAlgebra, OperationsMatchSpecAndEvaluation) {
    Rng rng(testutil::test_seed() * 1000003 + GetParam() * 977 + 5);
    const unsigned nv = 10;
    for (int round = 0; round < 20; ++round) {
        const PolyDesc da = random_desc(rng, nv, 8, 4);
        const PolyDesc db = random_desc(rng, nv, 6, 3);
        const Polynomial a = build(da);
        const Polynomial b = build(db);
        const Spec sa = spec_of(da);
        const Spec sb = spec_of(db);

        // Construction toggles terms mod 2 into canonical form.
        ASSERT_EQ(terms_of(a), canonical(sa));
        ASSERT_EQ(terms_of(b), canonical(sb));
        EXPECT_EQ(a.to_string(), render(sa));
        EXPECT_EQ(a.size(), sa.size());
        size_t degree = 0;
        std::set<Var> vars;
        for (const Term& t : sa) {
            degree = std::max(degree, t.size());
            vars.insert(t.begin(), t.end());
        }
        EXPECT_EQ(a.degree(), degree);
        EXPECT_EQ(a.variables(), std::vector<Var>(vars.begin(), vars.end()));
        EXPECT_EQ(a.has_constant_term(), sa.count(Term{}) == 1);
        if (!a.is_zero()) {
            EXPECT_EQ(a.leading_monomial().degree(), degree);
        }

        // Every operation the pipeline uses lands on the spec's result...
        const Var target = static_cast<Var>(rng.below(nv));
        const Polynomial sum = a + b;
        Polynomial acc = a;
        acc += b;
        const Polynomial prod = a * b;
        const Polynomial sub = a.substitute(target, b);
        EXPECT_EQ(terms_of(sum), canonical(spec_add(sa, sb)));
        EXPECT_EQ(terms_of(acc), canonical(spec_add(sa, sb)));
        EXPECT_EQ(terms_of(prod), canonical(spec_mul(sa, sb)));
        EXPECT_EQ(terms_of(sub), canonical(spec_substitute(sa, target, sb)));
        Polynomial self = a;
        self += a;
        EXPECT_TRUE(self.is_zero()) << "p += p must cancel to zero";

        // ...and computes the right function on all 2^10 assignments.
        for (uint32_t bits = 0; bits < (1u << nv); ++bits) {
            std::vector<bool> x = assignment_of(bits, nv);
            const bool va = a.evaluate(x), vb = b.evaluate(x);
            ASSERT_EQ(sum.evaluate(x), va != vb) << "a + b at " << bits;
            ASSERT_EQ(acc.evaluate(x), va != vb) << "a += b at " << bits;
            ASSERT_EQ(prod.evaluate(x), va && vb) << "a * b at " << bits;
            const bool vsub = sub.evaluate(x);
            x[target] = vb;
            ASSERT_EQ(vsub, a.evaluate(x))
                << "a[x" << target + 1 << " := b] at " << bits;
        }

        // Polynomial order: lexicographic on the ascending term lists.
        const std::vector<Term> ta = canonical(sa), tb = canonical(sb);
        EXPECT_EQ(a < b, std::lexicographical_compare(
                             ta.begin(), ta.end(), tb.begin(), tb.end(),
                             DegLex{}));
        EXPECT_EQ(a == b, sa == sb);
    }
}

TEST_P(TermAlgebra, MonomialOrderHashAndDivisionMatchSpec) {
    Rng rng(testutil::test_seed() * 1000003 + GetParam() * 31 + 2);
    for (int i = 0; i < 100; ++i) {
        const PolyDesc d = random_desc(rng, 12, 3, 5);
        const Term tm = term_of(d[0]), tn = term_of(d[1 % d.size()]);
        const Monomial m(d[0]), n(d[1 % d.size()]);
        EXPECT_EQ(term_of(m), tm);
        EXPECT_EQ(m.degree(), tm.size());
        EXPECT_EQ(m.hash(), hash_chain(tm));
        EXPECT_EQ(m < n, DegLex{}(tm, tn)) << "deg-lex order";
        EXPECT_EQ(m == n, tm == tn);
        EXPECT_EQ(m.divides(n),
                  std::includes(tn.begin(), tn.end(), tm.begin(), tm.end()));
        EXPECT_EQ(term_of(m * n), term_mul(tm, tn));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TermAlgebra, ::testing::Range(0, 10));

// ---- store-history independence of the lineariser ------------------------

TEST(Linearize, ColumnOrderIndependentOfStoreSize) {
    // linearize() de-duplicates terms by raw MonoId before sorting the
    // distinct monomials by content. Raw id values depend on store
    // history; the column order must not: linearise, grow the store with
    // unrelated vocabulary, then linearise the system again with its
    // polynomials in reverse order (so terms arrive in a different id
    // order) plus one polynomial whose monomials are interned only now
    // and so carry the newest ids.
    Rng rng(testutil::test_seed() * 1000003 + 123);
    std::vector<Polynomial> polys;
    for (int i = 0; i < 12; ++i)
        polys.push_back(build(random_desc(rng, 8, 6, 3)));
    polys.erase(std::remove_if(polys.begin(), polys.end(),
                               [](const Polynomial& p) { return p.is_zero(); }),
                polys.end());

    const core::Linearization before = core::linearize(polys);

    auto& store = anf::MonomialStore::global();
    const size_t cols = before.col_monomial.size();
    // Intern > 16x the column count of junk so cols*16 < store growth.
    for (size_t i = 0; store.size() < cols * 64 + 1000 && i < 100000; ++i)
        store.intern({static_cast<Var>(500000 + i),
                      static_cast<Var>(500001 + i)});

    std::vector<Polynomial> reversed(polys.rbegin(), polys.rend());
    const core::Linearization again = core::linearize(reversed);
    ASSERT_EQ(before.col_monomial.size(), again.col_monomial.size());
    for (size_t c = 0; c < before.col_monomial.size(); ++c) {
        EXPECT_EQ(before.col_monomial[c], again.col_monomial[c])
            << "column order leaked store history at column " << c;
    }

    // Fresh monomials of every degree: they must land at their deg-lex
    // place, not after the old ids.
    reversed.push_back(Polynomial(std::vector<Monomial>{
        Monomial(std::vector<Var>{0, 400000, 400001}),
        Monomial(std::vector<Var>{0, 400000}), Monomial(Var{400000})}));
    const core::Linearization after = core::linearize(reversed);
    ASSERT_EQ(after.col_monomial.size(), before.col_monomial.size() + 3);
    // Descending deg-lex, constant term last -- as documented.
    for (size_t c = 0; c + 1 < after.col_monomial.size(); ++c)
        EXPECT_TRUE(after.col_monomial[c + 1] < after.col_monomial[c]);
}

// ---- snapshot trail exactness on the interned representation -------------

std::vector<std::string> system_strings(const core::AnfSystem& sys) {
    std::vector<std::string> out;
    for (const auto& p : sys.to_polynomials()) out.push_back(p.to_string());
    std::sort(out.begin(), out.end());
    return out;
}

TEST(SnapshotTrail, RestoreIsExactAndStoreIsAppendOnly) {
    Rng rng(testutil::test_seed() * 1000003 + 321);
    for (int round = 0; round < 10; ++round) {
        std::vector<Polynomial> polys;
        for (int i = 0; i < 10; ++i)
            polys.push_back(
                build(random_desc(rng, 8, 5, 3)));
        core::AnfSystem sys(polys, 8);

        const auto before = system_strings(sys);
        const bool ok_before = sys.okay();
        const auto snap = sys.snapshot();
        const size_t store_before = anf::MonomialStore::global().size();

        // Mutate: add random facts (some may contradict -- that's the
        // interesting rewind case).
        for (int i = 0; i < 5; ++i)
            sys.add_fact(build(random_desc(rng, 8, 3, 2)));

        sys.restore(snap);
        EXPECT_EQ(system_strings(sys), before)
            << "pop must rewind the system bit-exactly";
        EXPECT_EQ(sys.okay(), ok_before);
        EXPECT_GE(anf::MonomialStore::global().size(), store_before)
            << "the store is append-only: rewinds never shrink it";
        sys.clear_trail();
    }
}

}  // namespace
}  // namespace bosphorus
