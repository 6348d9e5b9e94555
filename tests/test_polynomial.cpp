#include "anf/polynomial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>

#include "anf/anf_parser.h"
#include "util/rng.h"

namespace bosphorus::anf {
namespace {

Polynomial P(const std::string& s) { return parse_polynomial(s); }

// ---- Monomial ------------------------------------------------------------

TEST(Monomial, ConstantIsOne) {
    Monomial one;
    EXPECT_TRUE(one.is_one());
    EXPECT_EQ(one.degree(), 0u);
}

TEST(Monomial, DedupOnConstruction) {
    Monomial m(std::vector<Var>{2, 0, 2, 1});  // x^2 = x
    EXPECT_EQ(m.degree(), 3u);
    EXPECT_EQ(m.vars(), (std::vector<Var>{0, 1, 2}));
}

TEST(Monomial, ProductIsUnion) {
    const Monomial a(std::vector<Var>{0, 2});
    const Monomial b(std::vector<Var>{1, 2});
    const Monomial ab = a * b;
    EXPECT_EQ(ab.vars(), (std::vector<Var>{0, 1, 2}));
    EXPECT_EQ((a * a), a) << "idempotent: m * m = m over GF(2)";
}

TEST(Monomial, Divides) {
    const Monomial a(std::vector<Var>{0, 2});
    const Monomial b(std::vector<Var>{0, 1, 2});
    EXPECT_TRUE(a.divides(b));
    EXPECT_FALSE(b.divides(a));
    EXPECT_TRUE(Monomial().divides(a)) << "1 divides everything";
}

TEST(Monomial, Without) {
    const Monomial m(std::vector<Var>{0, 1, 2});
    EXPECT_EQ(m.without(1).vars(), (std::vector<Var>{0, 2}));
}

TEST(Monomial, DegLexOrder) {
    const Monomial one;
    const Monomial x0(0), x1(1);
    const Monomial x01(std::vector<Var>{0, 1});
    EXPECT_LT(one, x0);
    EXPECT_LT(x0, x1);
    EXPECT_LT(x1, x01) << "degree dominates lex";
}

TEST(Monomial, Evaluate) {
    const Monomial m(std::vector<Var>{0, 2});
    EXPECT_TRUE(m.evaluate({true, false, true}));
    EXPECT_FALSE(m.evaluate({true, true, false}));
    EXPECT_TRUE(Monomial().evaluate({false}));
}

// ---- Polynomial ------------------------------------------------------------

TEST(Polynomial, ZeroAndOne) {
    EXPECT_TRUE(Polynomial().is_zero());
    EXPECT_TRUE(Polynomial::constant(true).is_one());
    EXPECT_TRUE(Polynomial::constant(false).is_zero());
    EXPECT_TRUE(Polynomial::constant(true).is_constant());
    EXPECT_FALSE(P("x1").is_constant());
}

TEST(Polynomial, AdditionCancels) {
    EXPECT_TRUE((P("x1 + x2") + P("x1 + x2")).is_zero());
    EXPECT_EQ(P("x1") + P("x2"), P("x1 + x2"));
    EXPECT_EQ(P("x1 + x2") + P("x2 + x3"), P("x1 + x3"));
}

TEST(Polynomial, ConstructorCancelsPairs) {
    const Monomial x0(0);
    Polynomial p({x0, x0, Monomial(1)});
    EXPECT_EQ(p, P("x2"));
    Polynomial q({x0, x0, x0});
    EXPECT_EQ(q, P("x1"));
}

TEST(Polynomial, MultiplicationDistributes) {
    // (x1 + x2) * (x1 + x3) = x1 + x1x2 + x1x3 + x2x3 (since x1*x1 = x1)
    EXPECT_EQ(P("x1 + x2") * P("x1 + x3"),
              P("x1 + x1*x2 + x1*x3 + x2*x3"));
}

TEST(Polynomial, MultiplicationByMonomialCancels) {
    // (x1 + x1*x2) * x2 = x1x2 + x1x2 = 0
    const Polynomial p = P("x1 + x1*x2");
    EXPECT_TRUE((p * Monomial(1)).is_zero());
}

TEST(Polynomial, PaperElimLinExample) {
    // Section II-C: substituting x1 = x2 + x3 into x1x2 + x2x3 + 1
    // simplifies to x2 + 1.
    const Polynomial p = P("x1*x2 + x2*x3 + 1");
    EXPECT_EQ(p.substitute(0, P("x2 + x3")), P("x2 + 1"));
}

TEST(Polynomial, DegreeAndLinear) {
    EXPECT_EQ(P("x1*x2*x3 + x1").degree(), 3u);
    EXPECT_EQ(P("1").degree(), 0u);
    EXPECT_EQ(Polynomial().degree(), 0u);
    EXPECT_TRUE(P("x1 + x2 + 1").is_linear());
    EXPECT_FALSE(P("x1*x2").is_linear());
}

TEST(Polynomial, Variables) {
    EXPECT_EQ(P("x1*x3 + x2 + 1").variables(), (std::vector<Var>{0, 1, 2}));
    EXPECT_TRUE(P("1").variables().empty());
    EXPECT_EQ(P("x9*x2 + x7*x8*x3 + x1").variables(),
              (std::vector<Var>{0, 1, 2, 6, 7, 8}));
    EXPECT_EQ(variables({P("x5*x2 + 1"), P("x3 + x2"), P("0")}),
              (std::vector<Var>{1, 2, 4}));
    EXPECT_EQ(P("x9*x2 + x7*x8*x3 + x1").var_bound(), 9u);
    EXPECT_EQ(P("1").var_bound(), 0u);
    EXPECT_TRUE(P("x1*x3 + x2").contains_var(2));
    EXPECT_FALSE(P("x1*x3 + x2").contains_var(3));
}

TEST(Polynomial, LeadingMonomialIsMaxDegLex) {
    const Polynomial p = P("x1*x2 + x3 + 1");
    EXPECT_EQ(p.leading_monomial(), Monomial(std::vector<Var>{0, 1}));
}

TEST(Polynomial, HasConstantTerm) {
    EXPECT_TRUE(P("x1 + 1").has_constant_term());
    EXPECT_FALSE(P("x1 + x2").has_constant_term());
}

TEST(Polynomial, EvaluateMatchesStructure) {
    const Polynomial p = P("x1*x2 + x3 + 1");
    // x1=1, x2=1, x3=1: 1 + 1 + 1 = 1.
    EXPECT_TRUE(p.evaluate({true, true, true}));
    // x1=1, x2=1, x3=0: 1 + 0 + 1 = 0.
    EXPECT_FALSE(p.evaluate({true, true, false}));
}

TEST(Polynomial, ToStringRoundTrip) {
    for (const char* s : {"0", "1", "x1", "x1 + 1", "x1*x2 + x3 + 1",
                          "x1*x2*x3 + x2*x3 + x1 + x2"}) {
        const Polynomial p = P(s);
        EXPECT_EQ(parse_polynomial(p.to_string()), p) << s;
    }
}

TEST(Polynomial, SubstituteByConstants) {
    const Polynomial p = P("x1*x2 + x3 + 1");
    EXPECT_EQ(p.substitute(0, Polynomial::constant(true)), P("x2 + x3 + 1"));
    EXPECT_EQ(p.substitute(0, Polynomial()), P("x3 + 1"));
}

TEST(Polynomial, SubstituteByNegation) {
    // x = !y: x1 -> x2 + 1 in x1*x2: (x2+1)x2 = x2 + x2 = 0... precisely:
    // (x2 + 1) * x2 = x2*x2 + x2 = x2 + x2 = 0.
    EXPECT_TRUE(P("x1*x2").substitute(0, P("x2 + 1")).is_zero());
}

// Property sweep: substitution commutes with evaluation.
class PolynomialRandom : public ::testing::TestWithParam<int> {};

Polynomial random_poly(Rng& rng, unsigned num_vars, unsigned max_monos,
                       unsigned max_deg) {
    std::vector<Monomial> monos;
    const size_t n = 1 + rng.below(max_monos);
    for (size_t i = 0; i < n; ++i) {
        std::vector<Var> vars;
        const size_t d = rng.below(max_deg + 1);
        for (size_t j = 0; j < d; ++j)
            vars.push_back(static_cast<Var>(rng.below(num_vars)));
        monos.emplace_back(std::move(vars));
    }
    return Polynomial(std::move(monos));
}

TEST_P(PolynomialRandom, SubstitutionCommutesWithEvaluation) {
    Rng rng(GetParam());
    const unsigned nv = 6;
    const Polynomial p = random_poly(rng, nv, 8, 3);
    const Var target = static_cast<Var>(rng.below(nv));
    const Polynomial by = random_poly(rng, nv, 4, 2);
    const Polynomial subst = p.substitute(target, by);
    for (uint32_t m = 0; m < (1u << nv); ++m) {
        std::vector<bool> a(nv);
        for (unsigned v = 0; v < nv; ++v) a[v] = (m >> v) & 1;
        std::vector<bool> patched = a;
        patched[target] = by.evaluate(a);
        EXPECT_EQ(subst.evaluate(a), p.evaluate(patched));
    }
}

// The kernel's removed/added report must be exactly the difference of the
// variable sets before and after.
void expect_delta(const Polynomial& before, const Polynomial& after,
                  const VarDelta& d) {
    const std::vector<Var> b = before.variables(), a = after.variables();
    std::vector<Var> removed, added;
    std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                        std::back_inserter(removed));
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(added));
    EXPECT_EQ(d.removed, removed) << before.to_string() << " -> " << after.to_string();
    EXPECT_EQ(d.added, added) << before.to_string() << " -> " << after.to_string();
}

// The kernel keeps the untouched monomials as they are, without
// re-sorting; the result must still equal the fully canonicalised
// composition. Single-entry maps (ElimLin's best := rest) against
// untouched + quotient * by; multi-entry maps (normalise's constants and
// root ^ flip, where a root may occur in p or be mapped itself, and
// general images) against the term-by-term product of images.
TEST_P(PolynomialRandom, SubstituteMatchesCanonicalisedReference) {
    Rng rng(GetParam() + 1000);
    const unsigned nv = 6;
    const Polynomial p = random_poly(rng, nv, 10, 3);
    const Polynomial by = random_poly(rng, nv, 4, 2);
    for (Var v = 0; v < nv; ++v) {
        std::vector<Monomial> untouched, quotients;
        for (const Monomial& m : p.monomials()) {
            if (m.contains(v)) {
                quotients.push_back(m.without(v));
            } else {
                untouched.push_back(m);
            }
        }
        const Polynomial want = Polynomial(untouched) + Polynomial(quotients) * by;
        EXPECT_EQ(p.substitute(v, by), want)
            << p.to_string() << " with x" << v + 1 << " := " << by.to_string();
        Substitution s;
        s.set(v, by);
        Polynomial got = p;
        VarDelta d;
        EXPECT_EQ(got.apply(s, &d), p.contains_var(v));
        EXPECT_EQ(got, want);
        expect_delta(p, got, d);
    }

    for (int round = 0; round < 12; ++round) {
        Substitution s;
        std::vector<Polynomial> image(nv);
        std::vector<bool> mapped(nv, false);
        for (Var v = 0; v < nv; ++v) {
            if (rng.below(2)) continue;
            switch (rng.below(round < 8 ? 3 : 4)) {
                case 0:  // a constant
                    image[v] = Polynomial::constant(rng.below(2));
                    break;
                case 1:
                case 2: {  // root ^ flip; the root may occur in p
                    image[v] = Polynomial::variable(static_cast<Var>(rng.below(nv)));
                    if (rng.below(2)) image[v] += Polynomial::constant(true);
                    break;
                }
                default:
                    image[v] = random_poly(rng, nv, 3, 2);
                    break;
            }
            mapped[v] = true;
            s.set(v, image[v]);
        }
        Polynomial want;
        bool touched = false;
        for (const Monomial& m : p.monomials()) {
            Polynomial term = Polynomial::constant(true);
            for (Var v : m.vars()) {
                term = term * (mapped[v] ? image[v] : Polynomial::variable(v));
                touched = touched || mapped[v];
            }
            want += term;
        }
        Polynomial got = p;
        VarDelta d;
        EXPECT_EQ(got.apply(s, &d), touched);
        EXPECT_EQ(got, want) << p.to_string() << ", round " << round;
        expect_delta(p, got, d);
        if (!touched) EXPECT_EQ(got, p);
    }
}

TEST(Polynomial, ApplyAnnihilatingFlips) {
    // x1 := x3 + 1, x2 := x3: x1*x2 = (x3 + 1)*x3 = x3 + x3 = 0.
    Substitution s;
    s.set(0, P("x3 + 1"));
    s.set(1, P("x3"));
    Polynomial p = P("x1*x2 + x4");
    VarDelta d;
    EXPECT_TRUE(p.apply(s, &d));
    EXPECT_EQ(p, P("x4"));
    EXPECT_EQ(d.removed, (std::vector<Var>{0, 1}));
    EXPECT_TRUE(d.added.empty());
    // The root x3 already occurs: x1*x3 + x3 = (x3 + 1)*x3 + x3 = x3.
    Polynomial q = P("x1*x3 + x3 + x4");
    EXPECT_TRUE(q.apply(s, &d));
    EXPECT_EQ(q, P("x3 + x4"));
    EXPECT_EQ(d.removed, (std::vector<Var>{0}));
    EXPECT_TRUE(d.added.empty());
    // A map that touches nothing leaves p, and the report, empty-handed.
    Polynomial r = P("x4*x5 + 1");
    EXPECT_FALSE(r.apply(s, &d));
    EXPECT_EQ(r, P("x4*x5 + 1"));
    EXPECT_TRUE(d.removed.empty() && d.added.empty());
}

TEST_P(PolynomialRandom, RingAxioms) {
    Rng rng(GetParam() + 500);
    const unsigned nv = 5;
    const Polynomial a = random_poly(rng, nv, 6, 3);
    const Polynomial b = random_poly(rng, nv, 6, 3);
    const Polynomial c = random_poly(rng, nv, 6, 3);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_TRUE((a + a).is_zero());
    EXPECT_EQ(a * a, a) << "Boolean ring: p^2 = p";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolynomialRandom, ::testing::Range(0, 15));

// ---- parser ------------------------------------------------------------

TEST(AnfParser, BasicForms) {
    EXPECT_TRUE(P("0").is_zero());
    EXPECT_TRUE(P("1").is_one());
    EXPECT_EQ(P("x(3)"), Polynomial::variable(2));
    EXPECT_EQ(P(" x1 * x2 + 1 "), P("x1*x2+1"));
}

TEST(AnfParser, Errors) {
    EXPECT_THROW(parse_polynomial(""), ParseError);
    EXPECT_THROW(parse_polynomial("x"), ParseError);
    EXPECT_THROW(parse_polynomial("x0"), ParseError) << "1-based variables";
    EXPECT_THROW(parse_polynomial("x1 +"), ParseError);
    EXPECT_THROW(parse_polynomial("x1 & x2"), ParseError);
    EXPECT_THROW(parse_polynomial("x(2"), ParseError);
}

TEST(AnfParser, SystemWithComments) {
    const auto sys = parse_system_from_string(
        "c a comment\n"
        "# another\n"
        "x1*x2 + x3\n"
        "\n"
        "x4 + 1\n");
    EXPECT_EQ(sys.polynomials.size(), 2u);
    EXPECT_EQ(sys.num_vars, 4u);
}

TEST(AnfParser, WriteReadRoundTrip) {
    const auto sys = parse_system_from_string("x1*x2 + x3 + 1\nx2 + x4\n");
    std::ostringstream out;
    write_system(out, sys.polynomials);
    const auto again = parse_system_from_string(out.str());
    EXPECT_EQ(again.polynomials, sys.polynomials);
}

}  // namespace
}  // namespace bosphorus::anf
