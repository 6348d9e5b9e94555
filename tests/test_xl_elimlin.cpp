#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "anf/anf_parser.h"
#include "core/elimlin.h"
#include "core/linearize.h"
#include "core/xl.h"
#include "crypto/aes_small.h"
#include "crypto/simon.h"
#include "runtime/cancellation.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus::core {
namespace {

using anf::parse_polynomial;
using anf::parse_system_from_string;
using anf::Polynomial;

bool contains(const std::vector<Polynomial>& facts, const char* s) {
    const Polynomial p = parse_polynomial(s);
    return std::find(facts.begin(), facts.end(), p) != facts.end();
}

// ---- linearisation -------------------------------------------------------

TEST(Linearize, ColumnsDescendingDegLex) {
    const auto sys = parse_system_from_string("x1*x2 + x3 + 1\nx2 + x3\n");
    const Linearization lin = linearize(sys.polynomials);
    ASSERT_EQ(lin.cols(), 4u);  // x1x2, x3, x2, 1
    EXPECT_EQ(lin.col_monomial.front().degree(), 2u);
    EXPECT_TRUE(lin.col_monomial.back().is_one());
    for (size_t c = 0; c + 1 < lin.cols(); ++c)
        EXPECT_TRUE(lin.col_monomial[c + 1] < lin.col_monomial[c]);
}

TEST(Linearize, RowRoundTrip) {
    const auto sys =
        parse_system_from_string("x1*x2 + x3 + 1\nx2*x3 + x3\nx1 + 1\n");
    const Linearization lin = linearize(sys.polynomials);
    for (size_t r = 0; r < lin.rows(); ++r)
        EXPECT_EQ(row_to_polynomial(lin, r), sys.polynomials[r]);
}

// ---- reading reduced rows back --------------------------------------------

/// The plain row decoder: probe every column, then let the Polynomial
/// constructor canonicalise.
Polynomial reference_row(const Linearization& lin, size_t r) {
    std::vector<anf::Monomial> monos;
    for (size_t c = 0; c < lin.cols(); ++c)
        if (lin.matrix.get(r, c)) monos.push_back(lin.col_monomial[c]);
    return Polynomial(std::move(monos));
}

/// extract_facts() as build-then-filter: every nonzero row decoded, then
/// the linear rows and the monomial + 1 rows kept.
std::vector<Polynomial> reference_facts(const Linearization& lin) {
    std::vector<Polynomial> facts;
    for (size_t r = 0; r < lin.rows(); ++r) {
        if (lin.matrix.row_is_zero(r)) continue;
        Polynomial p = reference_row(lin, r);
        if (p.is_one()) return {Polynomial::constant(true)};
        const bool monomial_fact =
            p.size() == 2 && p.has_constant_term() && p.degree() >= 2;
        if (p.degree() <= 1 || monomial_fact) facts.push_back(std::move(p));
    }
    return facts;
}

/// XL's linearisation of a seeded Simon-[9,7] or SR(2,2,2,4) instance.
Linearization xl_linearization(bool simon, uint64_t seed) {
    Rng rng(seed);
    const auto system =
        simon ? crypto::Simon32(7).encode(9, rng).polys
              : crypto::SmallScaleAes({2, 2, 2, 4}).random_instance(rng).polys;
    XlConfig cfg;
    cfg.m_budget = 18;
    Rng xl_rng(seed + 1);
    return linearize(expand_xl(system, cfg, xl_rng));
}

TEST(Linearize, RowToPolynomialMatchesReference) {
    for (const bool simon : {true, false}) {
        Linearization lin = xl_linearization(simon, 5);
        for (size_t r = 0; r < lin.rows(); ++r)
            ASSERT_EQ(row_to_polynomial(lin, r), reference_row(lin, r)) << r;
        reduce(lin);
        for (size_t r = 0; r < lin.rows(); ++r)
            ASSERT_EQ(row_to_polynomial(lin, r), reference_row(lin, r)) << r;
    }
}

TEST(Linearize, ExtractFactsMatchesBuildThenFilter) {
    const char* systems[] = {
        // a 1 = 0 row after other facts
        "x1*x2 + x3\nx1*x2 + x3 + 1\nx4 + x5\nx2*x3 + 1\n",
        // no constant column (homogeneous)
        "x1*x2 + x3\nx2*x3 + x1*x2\nx3 + x2\n",
        // monomial + 1, and degree-2 rows that are not facts
        "x1*x2*x3 + 1\nx1*x2 + x3\nx2*x3 + x1 + 1\nx1*x4 + x2*x4\n",
        // linear + 1 next to a monomial + 1
        "x1 + x2 + 1\nx3*x4 + 1\nx1 + x3 + x4\n",
    };
    for (const char* text : systems) {
        Linearization lin = linearize(parse_system_from_string(text).polynomials);
        reduce(lin);
        EXPECT_EQ(extract_facts(lin), reference_facts(lin)) << text;
    }
    {
        Linearization contradiction = linearize(
            parse_system_from_string("x1*x2 + x3\nx1*x2 + x3 + 1\nx4\n")
                .polynomials);
        reduce(contradiction);
        EXPECT_EQ(extract_facts(contradiction),
                  std::vector<Polynomial>{Polynomial::constant(true)});
    }
    {
        // Only zero polynomials: rows but no columns.
        Linearization empty = linearize({Polynomial(), Polynomial()});
        ASSERT_EQ(empty.rows(), 2u);
        ASSERT_EQ(empty.cols(), 0u);
        reduce(empty);
        EXPECT_TRUE(extract_facts(empty).empty());
    }
    for (const bool simon : {true, false}) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            Linearization lin = xl_linearization(simon, seed);
            reduce(lin);
            const auto facts = extract_facts(lin);
            EXPECT_FALSE(facts.empty());
            EXPECT_EQ(facts, reference_facts(lin));
        }
    }
}

TEST(Linearize, LinearizedSize) {
    const auto sys = parse_system_from_string("x1*x2 + x3 + 1\nx2 + x3\n");
    // 2 rows x 4 distinct monomials.
    EXPECT_EQ(linearized_size(sys.polynomials), 8u);
}

TEST(Linearize, SubsampleRespectsBudget) {
    Rng rng(1);
    std::vector<Polynomial> polys;
    for (int i = 0; i < 50; ++i)
        polys.push_back(parse_polynomial("x" + std::to_string(i + 1) +
                                         " + x" + std::to_string(i + 2)));
    const auto idx = subsample(polys, 64, rng);
    EXPECT_LT(idx.size(), polys.size());
    const auto all = subsample(polys, size_t{1} << 30, rng);
    EXPECT_EQ(all.size(), polys.size()) << "huge budget takes everything";
}

// ---- XL: the Table I worked example --------------------------------------

TEST(Xl, TableIExample) {
    // ANF {x1x2 + x1 + 1, x2x3 + x3}, expansion degree D = 1. The paper's
    // Table I retains the facts {x1 + 1, x2, x3}.
    const auto sys =
        parse_system_from_string("x1*x2 + x1 + 1\nx2*x3 + x3\n");
    XlConfig cfg;
    cfg.degree = 1;
    cfg.m_budget = 20;  // plenty: no subsampling on this toy system
    Rng rng(1);
    XlStats stats;
    const auto facts = run_xl(sys.polynomials, cfg, rng, &stats);
    EXPECT_TRUE(contains(facts, "x1 + 1"));
    EXPECT_TRUE(contains(facts, "x2"));
    EXPECT_TRUE(contains(facts, "x3"));
    EXPECT_GE(stats.expanded_rows, 6u);
    EXPECT_EQ(stats.columns, 8u);  // as in Table I(a)
}

TEST(Xl, SectionIIEExampleLearnsListedFacts) {
    const auto sys = parse_system_from_string(
        "x1*x2 + x3 + x4 + 1\n"
        "x1*x2*x3 + x1 + x3 + 1\n"
        "x1*x3 + x3*x4*x5 + x3\n"
        "x2*x3 + x3*x5 + 1\n"
        "x2*x3 + x5 + 1\n");
    XlConfig cfg;
    cfg.degree = 1;
    cfg.m_budget = 24;
    Rng rng(1);
    const auto facts = run_xl(sys.polynomials, cfg, rng);
    // The paper lists these six facts for XL with D = 1:
    for (const char* f :
         {"x2*x3*x4 + 1", "x1*x3*x4 + 1", "x1 + x5 + 1", "x1 + x4", "x3 + 1",
          "x1 + x2"}) {
        EXPECT_TRUE(contains(facts, f)) << f;
    }
}

TEST(Xl, EmptySystem) {
    Rng rng(1);
    EXPECT_TRUE(run_xl({}, XlConfig{}, rng).empty());
}

TEST(Xl, DetectsContradiction) {
    const auto sys = parse_system_from_string("x1\nx1 + 1\n");
    Rng rng(1);
    XlConfig cfg;
    cfg.m_budget = 16;
    const auto facts = run_xl(sys.polynomials, cfg, rng);
    ASSERT_EQ(facts.size(), 1u);
    EXPECT_TRUE(facts[0].is_one());
}

TEST(XL, GoldenSimonAndSr) {
    // Fact count, an order-sensitive fold of the facts' content hashes and
    // every XlStats field, recorded with the dense M4R elimination and the
    // column-probing extraction: the path may get faster, never different.
    struct Golden {
        size_t facts;
        uint64_t hash;
        XlStats stats;
    };
    const Golden golden[] = {
        {224, 0xb18d11cfbfcf7605ULL, {785, 2960, 5671, 2954, 224}},
        {80, 0x68aa09682f04116dULL, {332, 3275, 5126, 2999, 80}},
    };
    for (const bool simon : {true, false}) {
        Rng rng(2024);
        const auto system =
            simon ? crypto::Simon32(7).encode(9, rng).polys
                  : crypto::SmallScaleAes({2, 2, 2, 4}).random_instance(rng).polys;
        XlConfig cfg;
        cfg.m_budget = 20;
        Rng xl_rng(7);
        XlStats stats;
        const auto facts = run_xl(system, cfg, xl_rng, &stats);
        uint64_t hash = 0;
        for (const auto& f : facts) hash = (hash ^ f.hash()) * 0x100000001B3ULL;

        const Golden& want = golden[simon ? 0 : 1];
        EXPECT_EQ(facts.size(), want.facts) << (simon ? "simon" : "sr");
        EXPECT_EQ(hash, want.hash) << (simon ? "simon" : "sr");
        EXPECT_EQ(stats.sampled_equations, want.stats.sampled_equations);
        EXPECT_EQ(stats.expanded_rows, want.stats.expanded_rows);
        EXPECT_EQ(stats.columns, want.stats.columns);
        EXPECT_EQ(stats.rank, want.stats.rank);
        EXPECT_EQ(stats.facts, want.stats.facts);
    }
}

// ---- ElimLin ---------------------------------------------------------------

TEST(ElimLin, SectionIICExample) {
    // {x1 + x2 + x3, x1x2 + x2x3 + 1}: ElimLin derives x2 + 1 (i.e. x2 = 1).
    const auto sys =
        parse_system_from_string("x1 + x2 + x3\nx1*x2 + x2*x3 + 1\n");
    ElimLinConfig cfg;
    cfg.m_budget = 16;
    Rng rng(1);
    ElimLinStats stats;
    const auto facts = run_elimlin(sys.polynomials, cfg, rng, &stats);
    EXPECT_TRUE(contains(facts, "x1 + x2 + x3"));
    EXPECT_TRUE(contains(facts, "x2 + 1"));
    EXPECT_GE(stats.iterations, 1u);
    EXPECT_GE(stats.eliminated_vars, 1u);
}

TEST(ElimLin, DetectsContradiction) {
    const auto sys = parse_system_from_string("x1 + x2\nx1 + x2 + 1\n");
    ElimLinConfig cfg;
    cfg.m_budget = 16;
    Rng rng(1);
    const auto facts = run_elimlin(sys.polynomials, cfg, rng);
    ASSERT_EQ(facts.size(), 1u);
    EXPECT_TRUE(facts[0].is_one());
}

TEST(ElimLin, PureLinearSystemFullySolved) {
    // A solvable linear system: facts must pin every variable.
    const auto sys = parse_system_from_string(
        "x1 + x2 + 1\n"
        "x2 + x3\n"
        "x1 + x3\n"  // consistent: x1 = x3, x2 = x3, x1 = !x2 -> contradiction?
    );
    // x1 + x2 = 1, x2 = x3, x1 = x3 => x1 + x2 = 0: contradiction.
    ElimLinConfig cfg;
    cfg.m_budget = 16;
    Rng rng(1);
    const auto facts = run_elimlin(sys.polynomials, cfg, rng);
    ASSERT_EQ(facts.size(), 1u);
    EXPECT_TRUE(facts[0].is_one());
}

// ---- ElimLin's occurrence index: edge cases --------------------------------

std::vector<Polynomial> parse_all(std::initializer_list<const char*> texts) {
    std::vector<Polynomial> out;
    for (const char* t : texts) out.push_back(parse_polynomial(t));
    return out;
}

// run_elimlin with M = 16 (no subsampling on these toy systems).
std::vector<Polynomial> elimlin16(const std::vector<Polynomial>& system,
                                  ElimLinStats* stats,
                                  const runtime::CancellationToken& cancel = {}) {
    ElimLinConfig cfg;
    cfg.m_budget = 16;
    Rng rng(1);
    return run_elimlin(system, cfg, rng, stats, cancel);
}

// Every fact holds in every model of `polys`, enumerating only `vars` (all
// variables of the system, which may be sparse). A claimed contradiction,
// the fact 1, thus fails unless the system has no model.
void expect_consequences(const std::vector<Polynomial>& polys,
                         const std::vector<Polynomial>& facts,
                         const std::vector<anf::Var>& vars) {
    const anf::Var top = *std::max_element(vars.begin(), vars.end());
    std::vector<bool> a(size_t{top} + 1);
    for (uint32_t m = 0; m < (1u << vars.size()); ++m) {
        for (size_t i = 0; i < vars.size(); ++i) a[vars[i]] = (m >> i) & 1;
        if (std::any_of(polys.begin(), polys.end(),
                        [&](const Polynomial& p) { return p.evaluate(a); }))
            continue;
        for (const auto& f : facts)
            EXPECT_FALSE(f.evaluate(a)) << f.to_string() << " violated";
    }
}

TEST(ElimLin, SparseLargeVariableIds) {
    // x40000 sits beside x1..x5. x1 and x40000 occur once each, so the
    // tie goes to the smaller id: x1 := x40000. The round-2 fact is then
    // written over x40000, not x1.
    const auto sys = parse_all({"x1 + x40000", "x1*x3 + x1 + x4",
                                "x40000*x3 + x5"});
    ElimLinStats stats;
    const auto facts = elimlin16(sys, &stats);
    EXPECT_EQ(facts, parse_all({"x1 + x40000", "x40000 + x5 + x4"}));
    EXPECT_EQ(stats.iterations, 2u);
    EXPECT_EQ(stats.eliminated_vars, 2u);
    expect_consequences(sys, facts, {0, 2, 3, 4, 39999});
}

TEST(ElimLin, VariableIntroducedBySubstitutionIsFollowed) {
    // x3 := x1 brings x1 into x3*x4 + x5; the next linear then eliminates
    // x1 := x2 (a tie at two occurrences), which must reach that
    // polynomial too so that round 2 can pair it with x2*x4 + x6.
    const auto sys =
        parse_all({"x1 + x3", "x1 + x2", "x3*x4 + x5", "x1*x5 + x4",
                   "x2*x4 + x6", "x2*x5 + x4 + x6 + 1"});
    ElimLinStats stats;
    const auto facts = elimlin16(sys, &stats);
    EXPECT_EQ(facts, parse_all({"x1 + x3", "x1 + x2", "x6 + 1", "x5 + 1",
                                "x2 + x4", "x4 + 1"}));
    EXPECT_EQ(stats.iterations, 3u);
    EXPECT_EQ(stats.eliminated_vars, 6u);
    expect_consequences(sys, facts, {0, 1, 2, 3, 4, 5});
}

// Round 1 reduces to the linears L1 = x3 + x1 and L2 = x2 + x1 beside two
// quadratics in which x1 never occurs: when L1 is eliminated, x1 is counted
// only in the later linear L2, so x1 := x3 is chosen and rewrites L2 into
// x2 + x3. Eliminating x2 := x3 next turns x2*x4 + x3*x4 + x5 into x5.
std::vector<Polynomial> pending_only_system() {
    return parse_all(
        {"x1 + x3", "x1 + x2", "x3*x4 + x2*x4 + x5", "x3*x5 + x4 + 1"});
}

TEST(ElimLin, VariableOnlyInLaterPendingLinears) {
    const auto sys = pending_only_system();
    ElimLinStats stats;
    const auto facts = elimlin16(sys, &stats);
    EXPECT_EQ(facts, parse_all({"x1 + x3", "x1 + x2", "x5", "x4 + 1"}));
    EXPECT_EQ(stats.iterations, 2u);
    EXPECT_EQ(stats.eliminated_vars, 4u);
    expect_consequences(sys, facts, {0, 1, 2, 3, 4});
}

TEST(ElimLin, SubstitutionToZeroDropsPolynomial) {
    // x1 occurs twice, x2 once: x2 := x1 turns x2*x3 + x1*x3 into 0. It is
    // dropped and round 2 runs on the surviving quadratic alone.
    ElimLinStats stats;
    const auto facts = elimlin16(
        parse_all({"x1 + x2", "x2*x3 + x1*x3", "x3*x4 + x1 + 1"}), &stats);
    EXPECT_EQ(facts, parse_all({"x1 + x2"}));
    EXPECT_EQ(stats.iterations, 1u);
    EXPECT_EQ(stats.eliminated_vars, 1u);
}

TEST(ElimLin, VariableCancelledBySubstitutionLeavesCount) {
    // The linears are eliminated in the order x6, x5, x4, x3, x1 + x2.
    // x4 := 1 then x3 := 0 turn x1*x3 + x2*x4 into x2, so x1 no longer
    // occurs there: x1 and x2 then occur once each, x1 := x2 wins the tie,
    // and round 2 learns x2 (x1 would survive had x1 kept its old count).
    ElimLinStats stats;
    const auto facts = elimlin16(
        parse_all({"x1 + x2", "x3", "x5 + x6 + 1", "x1*x3 + x2*x4",
                   "x1*x5 + x1*x6", "x6 + 1", "x4 + 1"}),
        &stats);
    EXPECT_EQ(facts,
              parse_all({"x6 + 1", "x5", "x4 + 1", "x3", "x1 + x2", "x2"}));
    EXPECT_EQ(stats.iterations, 1u);
    EXPECT_EQ(stats.eliminated_vars, 6u);
}

TEST(ElimLin, CancelAtSubstitutionBoundaryKeepsFacts) {
    // Polls: entry, round 1, then one per linear. Cancelling at the fourth
    // poll stops before L2 is eliminated; both round-1 facts are kept.
    int polls = 0;
    const auto cancel = runtime::CancellationToken::linked(
        {}, [&polls] { return ++polls >= 4; });
    ElimLinStats stats;
    const auto facts = elimlin16(pending_only_system(), &stats, cancel);
    EXPECT_EQ(facts, parse_all({"x1 + x3", "x1 + x2"}));
    EXPECT_EQ(stats.eliminated_vars, 1u);
    EXPECT_EQ(stats.iterations, 1u);
}

// Pins ElimLin's output on one fixed instance of each crypto class: the
// fact count, an order-sensitive fold of the fact hashes, and the stats.
// A change to the rarest-variable tie-break or to substitution shows up
// here. The expected values were recorded before the occurrence index
// replaced the per-candidate rescan.
TEST(ElimLin, GoldenSimonAndSr) {
    struct Golden {
        std::vector<Polynomial> polys;
        size_t facts;
        uint64_t fold;
        size_t iterations;
        size_t eliminated;
    };
    Rng simon_rng(2024);
    Rng sr_rng(2024);
    const Golden cases[] = {
        {crypto::Simon32(7).encode(9, simon_rng).polys, 360,
         0xdaccb4ce0de4d324ULL, 3, 360},
        {crypto::SmallScaleAes({2, 2, 2, 4}).random_instance(sr_rng).polys,
         80, 0x68aa09682f04116dULL, 1, 80},
    };
    for (const Golden& g : cases) {
        ElimLinConfig cfg;
        cfg.m_budget = 20;
        Rng rng(5);
        ElimLinStats stats;
        const auto facts = run_elimlin(g.polys, cfg, rng, &stats);
        uint64_t fold = 0;
        for (const auto& f : facts) fold = (fold ^ f.hash()) * 0x100000001B3ULL;
        EXPECT_EQ(facts.size(), g.facts);
        EXPECT_EQ(fold, g.fold);
        EXPECT_EQ(stats.iterations, g.iterations);
        EXPECT_EQ(stats.eliminated_vars, g.eliminated);
    }
}

// ---- property sweeps: learnt facts are consequences ----------------------

class LearnRandom : public ::testing::TestWithParam<int> {};

std::vector<Polynomial> random_system(Rng& rng, unsigned nv, size_t np,
                                      unsigned max_deg = 2) {
    std::vector<Polynomial> polys;
    for (size_t i = 0; i < np; ++i) {
        std::vector<anf::Monomial> monos;
        const size_t nm = 1 + rng.below(4);
        for (size_t j = 0; j < nm; ++j) {
            std::vector<anf::Var> vars;
            const size_t d = rng.below(max_deg + 1);
            for (size_t l = 0; l < d; ++l)
                vars.push_back(static_cast<anf::Var>(rng.below(nv)));
            monos.emplace_back(std::move(vars));
        }
        polys.emplace_back(std::move(monos));
    }
    return polys;
}

TEST_P(LearnRandom, XlFactsAreConsequences) {
    Rng rng(GetParam());
    const unsigned nv = 4 + rng.below(4);
    const auto polys = random_system(rng, nv, 4 + rng.below(5));
    const auto models = testutil::anf_models(polys, nv);

    XlConfig cfg;
    cfg.m_budget = 14;
    Rng xl_rng(GetParam() * 17 + 1);
    const auto facts = run_xl(polys, cfg, xl_rng);
    for (const auto& f : facts) {
        if (f.is_one()) {
            EXPECT_TRUE(models.empty()) << "XL claimed UNSAT wrongly";
            continue;
        }
        for (uint32_t m : models) {
            std::vector<bool> a(nv);
            for (unsigned v = 0; v < nv; ++v) a[v] = (m >> v) & 1;
            EXPECT_FALSE(f.evaluate(a))
                << "XL fact " << f.to_string() << " violated by a model";
        }
    }
}

// Up to 12 variables with cubic terms: large enough that ElimLin's
// substitutions feed later rounds, which the occurrence index must track.
struct ElimLinCase {
    unsigned nv;
    std::vector<Polynomial> polys;
    std::vector<Polynomial> facts;
    ElimLinStats stats;
};

ElimLinCase random_elimlin_case(int seed) {
    ElimLinCase c;
    Rng rng(seed + 999);
    c.nv = 4 + rng.below(9);
    c.polys = random_system(rng, c.nv, c.nv / 2 + rng.below(c.nv), 3);
    ElimLinConfig cfg;
    cfg.m_budget = 14;
    Rng el_rng(seed * 31 + 7);
    c.facts = run_elimlin(c.polys, cfg, el_rng, &c.stats);
    return c;
}

constexpr int kLearnSeeds = 40;

TEST_P(LearnRandom, ElimLinFactsAreConsequences) {
    const ElimLinCase c = random_elimlin_case(GetParam());
    std::vector<anf::Var> vars(c.nv);
    std::iota(vars.begin(), vars.end(), 0);
    expect_consequences(c.polys, c.facts, vars);
}

TEST(LearnRandomCoverage, SomeElimLinRunsReachASecondRound) {
    int multi_round = 0;
    for (int seed = 0; seed < kLearnSeeds; ++seed)
        multi_round += random_elimlin_case(seed).stats.iterations >= 2;
    EXPECT_GE(multi_round, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearnRandom, ::testing::Range(0, kLearnSeeds));

}  // namespace
}  // namespace bosphorus::core
