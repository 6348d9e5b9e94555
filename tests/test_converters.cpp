// ANF <-> CNF conversion tests (paper sections III-C and III-D).
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "anf/anf_parser.h"
#include "core/anf_to_cnf.h"
#include "core/cnf_to_anf.h"
#include "crypto/aes_small.h"
#include "crypto/simon.h"
#include "minimize/quine_mccluskey.h"
#include "sat/solve_cnf.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus::core {
namespace {

using anf::parse_polynomial;
using anf::parse_system_from_string;
using anf::Polynomial;
using testutil::anf_models;
using testutil::cnf_models;
using testutil::project_models;

// ---- ANF -> CNF -----------------------------------------------------------

TEST(AnfToCnf, Fig2KarnaughPath) {
    // x1x3 + x1 + x2 + x4 + 1 with K >= 4: 6 clauses, no auxiliaries
    // (paper Fig. 2, left).
    const auto p = parse_polynomial("x1*x3 + x1 + x2 + x4 + 1");
    Anf2CnfConfig cfg;
    cfg.karnaugh_k = 8;
    const auto res = anf_to_cnf({p}, 4, cfg);
    EXPECT_EQ(res.cnf.clauses.size(), 6u);
    EXPECT_EQ(res.cnf.num_vars, 4u) << "no auxiliary variables";
    EXPECT_EQ(res.karnaugh_polys, 1u);
}

TEST(AnfToCnf, Fig2TseitinPath) {
    // The same polynomial with K = 2 forces the Tseitin path: one aux var
    // for x1x3 (3 clauses) plus an 4-literal XOR (8 clauses) = 11 clauses
    // (paper Fig. 2, right).
    const auto p = parse_polynomial("x1*x3 + x1 + x2 + x4 + 1");
    Anf2CnfConfig cfg;
    cfg.karnaugh_k = 2;
    const auto res = anf_to_cnf({p}, 4, cfg);
    EXPECT_EQ(res.cnf.clauses.size(), 11u);
    EXPECT_EQ(res.cnf.num_vars, 5u) << "exactly one auxiliary monomial var";
    EXPECT_EQ(res.tseitin_polys, 1u);
    // The bidirectional map must know the monomial.
    const anf::Monomial m(std::vector<anf::Var>{0, 2});
    ASSERT_TRUE(res.var_of_mono.count(m));
    EXPECT_EQ(res.var_of_mono.at(m), 4u);
    EXPECT_EQ(res.mono_of_var.at(0), m);
}

TEST(AnfToCnf, BothPathsSameSolutions) {
    const auto p = parse_polynomial("x1*x3 + x1 + x2 + x4 + 1");
    Anf2CnfConfig karnaugh, tseitin;
    karnaugh.karnaugh_k = 8;
    tseitin.karnaugh_k = 2;
    const auto rk = anf_to_cnf({p}, 4, karnaugh);
    const auto rt = anf_to_cnf({p}, 4, tseitin);
    EXPECT_EQ(project_models(cnf_models(rk.cnf), 4),
              project_models(cnf_models(rt.cnf), 4));
}

TEST(AnfToCnf, ConstantOnePolynomialIsUnsat) {
    const auto res = anf_to_cnf({Polynomial::constant(true)}, 2);
    bool has_empty = false;
    for (const auto& c : res.cnf.clauses) has_empty |= c.empty();
    EXPECT_TRUE(has_empty);
}

TEST(AnfToCnf, UnitAndEquivalencePolynomials) {
    // x1 + 1 = 0 -> unit clause; x2 + x3 + 1 = 0 -> two binaries.
    const auto sys = parse_system_from_string("x1 + 1\nx2 + x3 + 1\n");
    const auto res = anf_to_cnf(sys.polynomials, 3);
    ASSERT_EQ(res.cnf.clauses.size(), 3u);
    EXPECT_EQ(res.cnf.clauses[0].size(), 1u);
}

TEST(AnfToCnf, LongXorIsCut) {
    // 8 linear terms with L = 5 requires chaining auxiliaries.
    const auto p = parse_polynomial(
        "x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + 1");
    Anf2CnfConfig cfg;
    cfg.karnaugh_k = 3;  // force the XOR path
    cfg.xor_cut = 5;
    const auto res = anf_to_cnf({p}, 8, cfg);
    EXPECT_GT(res.cnf.num_vars, 8u) << "cutting introduced auxiliaries";
    EXPECT_GE(res.cut_chunks, 2u);
    // Semantics: projected models must equal the polynomial's models.
    EXPECT_EQ(project_models(cnf_models(res.cnf), 8),
              anf_models({p}, 8));
}

TEST(AnfToCnf, NativeXorOutput) {
    const auto p = parse_polynomial("x1 + x2 + x3 + x4 + 1");
    Anf2CnfConfig cfg;
    cfg.karnaugh_k = 2;
    cfg.native_xor = true;
    const auto res = anf_to_cnf({p}, 4, cfg);
    EXPECT_EQ(res.cnf.xors.size(), 1u);
    EXPECT_EQ(project_models(cnf_models(res.cnf), 4), anf_models({p}, 4));
}

TEST(AnfToCnf, SharedMonomialAuxReused) {
    // x1x2 appears in two polynomials: only one auxiliary variable.
    const auto sys = parse_system_from_string(
        "x1*x2 + x3 + x4 + 1\nx1*x2 + x5 + x6\n");
    Anf2CnfConfig cfg;
    cfg.karnaugh_k = 2;
    const auto res = anf_to_cnf(sys.polynomials, 6, cfg);
    EXPECT_EQ(res.cnf.num_vars, 7u) << "one shared aux for x1*x2";
}

TEST(AnfToCnf, RejectsSizesItCannotHonour) {
    const auto p = parse_polynomial("x1*x3 + x1 + x2 + x4 + 1");
    auto convert = [&p](unsigned k, unsigned cut) {
        Anf2CnfConfig cfg;
        cfg.karnaugh_k = k;
        cfg.xor_cut = cut;
        return anf_to_cnf({p}, 4, cfg);
    };
    EXPECT_THROW(convert(8, 2), std::invalid_argument);
    EXPECT_THROW(convert(8, 25), std::invalid_argument);
    EXPECT_THROW(convert(21, 5), std::invalid_argument);
    EXPECT_NO_THROW(convert(8, 3));
    EXPECT_NO_THROW(convert(8, 24));
    EXPECT_NO_THROW(convert(20, 5));
}

// Order-sensitive fold of everything a conversion emits: the variable
// count, every clause literal and every native XOR, in output order.
uint64_t fold_cnf(const sat::Cnf& cnf) {
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t x) { h = (h ^ x) * 0x100000001B3ULL; };
    mix(cnf.num_vars);
    for (const auto& cl : cnf.clauses) {
        mix(cl.size());
        for (const sat::Lit l : cl) mix(l.raw());
    }
    for (const auto& x : cnf.xors) {
        mix((uint64_t{x.rhs} << 32) | x.vars.size());
        for (const sat::Var v : x.vars) mix(v);
    }
    return h;
}

TEST(AnfToCnf, GoldenSimonAndSr) {
    // A fixed Simon-[9,7] and SR(2,2,2,4) instance converted at the
    // default L, at the default K (every chunk takes the Karnaugh path)
    // and at K = 3 (most take the Tseitin/XOR path), each as plain CNF
    // and with native XORs. Pinned: the fold above and the clause/XOR
    // counts. A second conversion (every Karnaugh cover now memoised)
    // must repeat the first exactly. Conversion may get faster, never
    // different.
    struct Golden {
        uint64_t fold;
        size_t clauses;
        size_t xors;
    };
    struct Variant {
        unsigned k;
        bool native;
    };
    const Variant variants[] = {{8, false}, {8, true}, {3, false}, {3, true}};
    const Golden golden[2][4] = {
        {{0x8dbb144f5d9e8685ULL, 33566, 0},
         {0x8dbb144f5d9e8685ULL, 33566, 0},
         {0x6c2117608ff72b6fULL, 31856, 0},
         {0xf6841dd309d661c9ULL, 2732, 2233}},  // simon
        {{0x23c7a7c72940bbd1ULL, 10144, 0},
         {0x23c7a7c72940bbd1ULL, 10144, 0},
         {0xeeeae4ece5f79081ULL, 10120, 0},
         {0x9ad1ecd7ad21a92eULL, 1176, 722}},  // sr
    };
    for (const bool simon : {true, false}) {
        Rng rng(2024);
        std::vector<Polynomial> polys;
        size_t num_vars = 0;
        if (simon) {
            auto inst = crypto::Simon32(7).encode(9, rng);
            polys = std::move(inst.polys);
            num_vars = inst.witness.size();
        } else {
            auto inst =
                crypto::SmallScaleAes({2, 2, 2, 4}).random_instance(rng);
            polys = std::move(inst.polys);
            num_vars = inst.witness.size();
        }
        for (size_t i = 0; i < std::size(variants); ++i) {
            Anf2CnfConfig cfg;
            cfg.karnaugh_k = variants[i].k;
            cfg.native_xor = variants[i].native;
            const auto first = anf_to_cnf(polys, num_vars, cfg);
            const auto again = anf_to_cnf(polys, num_vars, cfg);
            const std::string name = std::string(simon ? "simon" : "sr") +
                                     " K=" + std::to_string(cfg.karnaugh_k) +
                                     (cfg.native_xor ? " xor" : " plain");
            const Golden& want = golden[simon ? 0 : 1][i];
            EXPECT_EQ(fold_cnf(first.cnf), want.fold) << name;
            EXPECT_EQ(first.cnf.clauses.size(), want.clauses) << name;
            EXPECT_EQ(first.cnf.xors.size(), want.xors) << name;
            EXPECT_EQ(fold_cnf(again.cnf), fold_cnf(first.cnf)) << name;
        }
    }
}

TEST(KarnaughMemo, MatchesMinimiserAcrossClears) {
    // Random tables over k <= 8 variables, each looked up twice in a
    // 16-entry memo: both lookups equal a direct minimize_sop call, also
    // after the memo filled up and cleared itself.
    KarnaughMemo memo(16);
    Rng rng(99);
    size_t clears = 0, last = 0;
    for (int i = 0; i < 80; ++i) {
        const unsigned k = 1 + static_cast<unsigned>(rng.below(8));
        std::vector<bool> on(size_t{1} << k);
        for (size_t m = 0; m < on.size(); ++m) on[m] = rng.below(2);
        const auto direct = minimize::minimize_sop(on, k);
        EXPECT_EQ(memo.cover(on, k), direct) << "first lookup " << i;
        EXPECT_EQ(memo.cover(on, k), direct) << "repeated lookup " << i;
        if (memo.size() < last) ++clears;
        last = memo.size();
    }
    EXPECT_GE(clears, 2u);
}

TEST(KarnaughMemo, KeysOnTheVariableCount) {
    // The same bits over 2 and over 3 variables are different functions.
    KarnaughMemo memo;
    const std::vector<bool> two = {false, false, false, true};
    std::vector<bool> three(8, false);
    three[3] = true;
    EXPECT_EQ(memo.cover(two, 2), minimize::minimize_sop(two, 2));
    EXPECT_EQ(memo.cover(three, 3), minimize::minimize_sop(three, 3));
    EXPECT_EQ(memo.size(), 2u);
    // Tables wider than kMaxK go straight to the minimiser.
    const unsigned wide = KarnaughMemo::kMaxK + 1;
    std::vector<bool> on(size_t{1} << wide, false);
    on[5] = true;
    EXPECT_EQ(memo.cover(on, wide), minimize::minimize_sop(on, wide));
    EXPECT_EQ(memo.size(), 2u);
}

TEST(KarnaughMemo, ConcurrentConversionsAgree) {
    // Four threads convert one SR(2,2,2,4) system through one small memo,
    // so lookups, inserts and clears interleave; every conversion must
    // match a single-threaded one that calls the minimiser every time.
    Rng rng(2024);
    const auto inst = crypto::SmallScaleAes({2, 2, 2, 4}).random_instance(rng);
    const size_t nv = inst.witness.size();
    KarnaughMemo none(0);
    const uint64_t want = fold_cnf(anf_to_cnf(inst.polys, nv, {}, none).cnf);
    KarnaughMemo memo(8);
    std::vector<uint64_t> folds(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < folds.size(); ++t) {
        threads.emplace_back([&, t] {
            folds[t] = fold_cnf(anf_to_cnf(inst.polys, nv, {}, memo).cnf);
        });
    }
    for (auto& th : threads) th.join();
    for (const uint64_t f : folds) EXPECT_EQ(f, want);
}

class AnfToCnfRandom : public ::testing::TestWithParam<int> {};

TEST_P(AnfToCnfRandom, ConversionPreservesSolutions) {
    Rng rng(GetParam());
    const unsigned nv = 4 + rng.below(3);
    std::vector<Polynomial> polys;
    const size_t np = 2 + rng.below(4);
    for (size_t i = 0; i < np; ++i) {
        std::vector<anf::Monomial> monos;
        const size_t nm = 1 + rng.below(5);
        for (size_t j = 0; j < nm; ++j) {
            std::vector<anf::Var> vars;
            const size_t d = rng.below(4);
            for (size_t l = 0; l < d; ++l)
                vars.push_back(static_cast<anf::Var>(rng.below(nv)));
            monos.emplace_back(std::move(vars));
        }
        polys.emplace_back(std::move(monos));
    }
    // Sweep conversion configurations.
    for (const unsigned k : {1u, 3u, 8u}) {
        for (const unsigned cut : {3u, 5u}) {
            Anf2CnfConfig cfg;
            cfg.karnaugh_k = k;
            cfg.xor_cut = cut;
            const auto res = anf_to_cnf(polys, nv, cfg);
            if (res.cnf.num_vars > 22) continue;  // keep brute force cheap
            EXPECT_EQ(project_models(cnf_models(res.cnf), nv),
                      anf_models(polys, nv))
                << "K=" << k << " L=" << cut;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnfToCnfRandom, ::testing::Range(0, 20));

// ---- CNF -> ANF -----------------------------------------------------------

TEST(CnfToAnf, PaperClauseExample) {
    // Clause !x1 | x2 becomes x1(x2 + 1) = x1x2 + x1 (paper section III-D).
    sat::Cnf cnf;
    cnf.num_vars = 2;
    cnf.add_clause({sat::mk_lit(0, true), sat::mk_lit(1, false)});
    const auto res = cnf_to_anf(cnf);
    ASSERT_EQ(res.polys.size(), 1u);
    EXPECT_EQ(res.polys[0], parse_polynomial("x1*x2 + x1"));
}

TEST(CnfToAnf, AllNegativeClauseIsSingleMonomial) {
    sat::Cnf cnf;
    cnf.num_vars = 3;
    cnf.add_clause(
        {sat::mk_lit(0, true), sat::mk_lit(1, true), sat::mk_lit(2, true)});
    const auto res = cnf_to_anf(cnf);
    ASSERT_EQ(res.polys.size(), 1u);
    EXPECT_EQ(res.polys[0], parse_polynomial("x1*x2*x3"));
}

TEST(CnfToAnf, PositiveLiteralsExpand) {
    // n positive literals -> 2^n monomials (no cutting needed below L').
    sat::Cnf cnf;
    cnf.num_vars = 3;
    cnf.add_clause(
        {sat::mk_lit(0, false), sat::mk_lit(1, false), sat::mk_lit(2, false)});
    const auto res = cnf_to_anf(cnf, 5);
    ASSERT_EQ(res.polys.size(), 1u);
    EXPECT_EQ(res.polys[0].size(), 8u);
    EXPECT_EQ(res.cut_clauses, 0u);
}

TEST(CnfToAnf, ClauseCuttingLimitsPositives) {
    // 6 positive literals with L' = 3: must be split with auxiliaries.
    sat::Cnf cnf;
    cnf.num_vars = 6;
    std::vector<sat::Lit> clause;
    for (sat::Var v = 0; v < 6; ++v) clause.push_back(sat::mk_lit(v, false));
    cnf.add_clause(clause);
    const auto res = cnf_to_anf(cnf, 3);
    EXPECT_GE(res.cut_clauses, 1u);
    EXPECT_GT(res.num_vars, 6u);
    for (const auto& p : res.polys)
        EXPECT_LE(p.size(), 1u << 4) << "monomial blow-up not contained";
    // Semantics preserved on the original variables.
    EXPECT_EQ(project_models(anf_models(res.polys, res.num_vars), 6),
              cnf_models(cnf));
}

TEST(CnfToAnf, XorConstraintsBecomeLinear) {
    sat::Cnf cnf;
    cnf.num_vars = 3;
    cnf.xors.push_back({{0, 1, 2}, true});
    const auto res = cnf_to_anf(cnf);
    ASSERT_EQ(res.polys.size(), 1u);
    EXPECT_EQ(res.polys[0], parse_polynomial("x1 + x2 + x3 + 1"));
}

class CnfToAnfRandom : public ::testing::TestWithParam<int> {};

TEST_P(CnfToAnfRandom, ConversionPreservesSolutions) {
    Rng rng(GetParam() + 50);
    const size_t nv = 4 + rng.below(4);
    sat::Cnf cnf;
    cnf.num_vars = nv;
    const size_t nc = 3 + rng.below(8);
    for (size_t i = 0; i < nc; ++i) {
        std::vector<sat::Lit> clause;
        const size_t len = 1 + rng.below(4);
        for (size_t j = 0; j < len; ++j)
            clause.push_back(
                sat::mk_lit(static_cast<sat::Var>(rng.below(nv)), rng.coin()));
        cnf.add_clause(std::move(clause));
    }
    for (const unsigned cut : {2u, 3u, 5u}) {
        const auto res = cnf_to_anf(cnf, cut);
        if (res.num_vars > 20) continue;
        EXPECT_EQ(project_models(anf_models(res.polys, res.num_vars), nv),
                  project_models(cnf_models(cnf), nv))
            << "L'=" << cut;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CnfToAnfRandom, ::testing::Range(0, 20));

}  // namespace
}  // namespace bosphorus::core
