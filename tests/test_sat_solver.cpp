#include "sat/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "bosphorus/sat_backend.h"
#include "cnfgen/generators.h"
#include "core/anf_to_cnf.h"
#include "crypto/aes_small.h"
#include "sat/dimacs.h"
#include "sat/preprocess.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus::sat {
namespace {

using testutil::cnf_models;

Lit pos(Var v) { return mk_lit(v, false); }
Lit neg(Var v) { return mk_lit(v, true); }

TEST(Lit, Encoding) {
    const Lit l = mk_lit(3, true);
    EXPECT_EQ(l.var(), 3u);
    EXPECT_TRUE(l.sign());
    EXPECT_EQ((~l).sign(), false);
    EXPECT_EQ(l.to_dimacs(), -4);
    EXPECT_EQ((~l).to_dimacs(), 4);
}

TEST(Solver, EmptyFormulaIsSat) {
    Solver s;
    EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(Solver, UnitClauses) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var();
    EXPECT_TRUE(s.add_clause({pos(a)}));
    EXPECT_TRUE(s.add_clause({neg(b)}));
    ASSERT_EQ(s.solve(), Result::kSat);
    EXPECT_EQ(s.model()[a], LBool::kTrue);
    EXPECT_EQ(s.model()[b], LBool::kFalse);
}

TEST(Solver, ContradictoryUnitsAreUnsat) {
    Solver s;
    const Var a = s.new_var();
    EXPECT_TRUE(s.add_clause({pos(a)}));
    EXPECT_FALSE(s.add_clause({neg(a)}));
    EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, TautologyIgnored) {
    Solver s;
    const Var a = s.new_var();
    EXPECT_TRUE(s.add_clause({pos(a), neg(a)}));
    EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(Solver, DuplicateLiteralsCollapsed) {
    Solver s;
    const Var a = s.new_var();
    EXPECT_TRUE(s.add_clause({pos(a), pos(a)}));
    ASSERT_EQ(s.solve(), Result::kSat);
    EXPECT_EQ(s.model()[a], LBool::kTrue);
}

TEST(Solver, EmptyClauseIsUnsat) {
    Solver s;
    EXPECT_FALSE(s.add_clause({}));
    EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, SimpleImplicationChain) {
    Solver s;
    std::vector<Var> v;
    for (int i = 0; i < 10; ++i) v.push_back(s.new_var());
    for (int i = 0; i + 1 < 10; ++i)
        s.add_clause({neg(v[i]), pos(v[i + 1])});  // v_i -> v_{i+1}
    s.add_clause({pos(v[0])});
    ASSERT_EQ(s.solve(), Result::kSat);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(s.model()[v[i]], LBool::kTrue);
}

TEST(Solver, RequiresRealSearch) {
    // (a|b) & (!a|b) & (a|!b) forces a=b=1.
    Solver s;
    const Var a = s.new_var(), b = s.new_var();
    s.add_clause({pos(a), pos(b)});
    s.add_clause({neg(a), pos(b)});
    s.add_clause({pos(a), neg(b)});
    ASSERT_EQ(s.solve(), Result::kSat);
    EXPECT_EQ(s.model()[a], LBool::kTrue);
    EXPECT_EQ(s.model()[b], LBool::kTrue);
}

TEST(Solver, PigeonholeUnsat) {
    for (unsigned holes : {3u, 4u, 5u}) {
        Solver s;
        EXPECT_TRUE(s.load(cnfgen::pigeonhole(holes)));
        EXPECT_EQ(s.solve(), Result::kUnsat) << "PHP(" << holes + 1 << ","
                                             << holes << ")";
    }
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
    // A hard instance with a tiny budget must return kUnknown.
    Solver s;
    s.load(cnfgen::pigeonhole(8));
    EXPECT_EQ(s.solve(/*conflict_budget=*/5), Result::kUnknown);
    EXPECT_LE(s.stats().conflicts, 6u);
}

TEST(Solver, LearntUnitsAreSound) {
    // Any literal the solver exports as a learnt unit must hold in every
    // model of the formula.
    Rng rng(42);
    for (int inst = 0; inst < 10; ++inst) {
        const Cnf cnf = cnfgen::random_ksat(8, 30, 3, rng);
        const auto models = cnf_models(cnf);
        Solver s;
        if (!s.load(cnf)) continue;
        s.solve();
        for (const Lit u : s.learnt_units()) {
            for (const uint32_t m : models) {
                const bool val = (m >> u.var()) & 1;
                EXPECT_EQ(val, !u.sign())
                    << "learnt unit contradicts a model";
            }
        }
    }
}

TEST(Solver, XorConstraintBasic) {
    Solver::Config cfg;
    cfg.enable_xor = true;
    Solver s(cfg);
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    EXPECT_TRUE(s.add_xor({{a, b, c}, true}));
    EXPECT_TRUE(s.add_clause({pos(a)}));
    EXPECT_TRUE(s.add_clause({neg(b)}));
    ASSERT_EQ(s.solve(), Result::kSat);
    // a=1, b=0 -> c must be 0 (1^0^0 = 1).
    EXPECT_EQ(s.model()[c], LBool::kFalse);
}

TEST(Solver, XorUnsatCycle) {
    // x^y=0, y^z=0, x^z=1 is inconsistent.
    Solver::Config cfg;
    cfg.enable_xor = true;
    Solver s(cfg);
    const Var x = s.new_var(), y = s.new_var(), z = s.new_var();
    s.add_xor({{x, y}, false});
    s.add_xor({{y, z}, false});
    s.add_xor({{x, z}, true});
    EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, XorExpansionWithoutEngineMatches) {
    // The same XOR system must get the same verdict with and without the
    // native engine.
    Rng rng(3);
    for (int inst = 0; inst < 10; ++inst) {
        std::vector<XorConstraint> xors;
        const size_t nv = 6;
        for (int i = 0; i < 7; ++i) {
            XorConstraint x;
            const size_t len = 2 + rng.below(3);
            for (size_t j = 0; j < len; ++j)
                x.vars.push_back(static_cast<Var>(rng.below(nv)));
            x.rhs = rng.coin();
            xors.push_back(std::move(x));
        }
        Result r_native, r_plain;
        {
            Solver::Config cfg;
            cfg.enable_xor = true;
            Solver s(cfg);
            for (size_t v = 0; v < nv; ++v) s.new_var();
            bool ok = true;
            for (const auto& x : xors) ok = ok && s.add_xor(x);
            r_native = ok ? s.solve() : Result::kUnsat;
        }
        {
            Solver s;
            for (size_t v = 0; v < nv; ++v) s.new_var();
            bool ok = true;
            for (const auto& x : xors) ok = ok && s.add_xor(x);
            r_plain = ok ? s.solve() : Result::kUnsat;
        }
        EXPECT_EQ(r_native, r_plain) << "instance " << inst;
    }
}

TEST(Solver, XorLongChainCutCorrectly) {
    // A 12-variable XOR without native support exercises the internal
    // cutting path; pin all but one variable and check the implied value.
    Solver s;
    std::vector<Var> vars;
    for (int i = 0; i < 12; ++i) vars.push_back(s.new_var());
    XorConstraint x;
    x.vars = vars;
    x.rhs = true;
    EXPECT_TRUE(s.add_xor(x));
    for (int i = 0; i < 11; ++i) s.add_clause({neg(vars[i])});  // all 0
    ASSERT_EQ(s.solve(), Result::kSat);
    EXPECT_EQ(s.model()[vars[11]], LBool::kTrue);
}

// ---- XorEngine backtracking edges ----------------------------------------

TEST(Solver, XorConstantsOnTrailAtAddTime) {
    // add_xor does not fold the trail eagerly: variables already assigned
    // at add time are evaluated lazily during propagation. Fix a=1 and
    // b=0 via units *before* registering the row.
    {
        Solver::Config cfg;
        cfg.enable_xor = true;
        Solver s(cfg);
        const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
        ASSERT_TRUE(s.add_clause({pos(a)}));
        ASSERT_TRUE(s.add_clause({neg(b)}));
        ASSERT_TRUE(s.add_xor({{a, b, c}, true}));
        ASSERT_EQ(s.solve(), Result::kSat);
        EXPECT_EQ(s.model()[c], LBool::kFalse);  // 1^0^c = 1 -> c = 0
    }
    // All variables of the row already assigned, wrong parity: the
    // constraint is violated the moment it is registered.
    {
        Solver::Config cfg;
        cfg.enable_xor = true;
        Solver s(cfg);
        const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
        ASSERT_TRUE(s.add_clause({pos(a)}));
        ASSERT_TRUE(s.add_clause({neg(b)}));
        ASSERT_TRUE(s.add_clause({neg(c)}));
        s.add_xor({{a, b, c}, false});  // 1^0^0 = 1 != 0
        EXPECT_EQ(s.solve(), Result::kUnsat);
    }
    // Same trail, right parity: satisfiable, values unchanged.
    {
        Solver::Config cfg;
        cfg.enable_xor = true;
        Solver s(cfg);
        const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
        ASSERT_TRUE(s.add_clause({pos(a)}));
        ASSERT_TRUE(s.add_clause({neg(b)}));
        ASSERT_TRUE(s.add_clause({neg(c)}));
        ASSERT_TRUE(s.add_xor({{a, b, c}, true}));
        ASSERT_EQ(s.solve(), Result::kSat);
        EXPECT_EQ(s.model()[a], LBool::kTrue);
    }
}

TEST(Solver, XorFullyAssignedRowConflictsAtNonZeroLevel) {
    // A 3-variable row survives the level-0 Gauss-Jordan pass (only
    // weight <= 2 rows are rewritten into units/binaries), so the search
    // must hit it as a *runtime* conflict: deciding e propagates d
    // through the binary clauses, d floods a, b, c in one clause-
    // propagation batch, and the XOR engine then finds the row fully
    // assigned with wrong parity at a non-zero decision level.
    Solver::Config cfg;
    cfg.enable_xor = true;
    Solver s(cfg);
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    const Var d = s.new_var(), e = s.new_var();
    ASSERT_TRUE(s.add_xor({{a, b, c}, true}));
    ASSERT_TRUE(s.add_clause({neg(d), pos(a)}));
    ASSERT_TRUE(s.add_clause({neg(d), pos(b)}));
    ASSERT_TRUE(s.add_clause({neg(d), neg(c)}));  // d -> parity(a,b,c) = 0
    ASSERT_TRUE(s.add_clause({pos(d), pos(e)}));
    ASSERT_TRUE(s.add_clause({pos(d), neg(e)}));  // ~d is contradictory
    EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, XorQheadSurvivesDeepBacktracksAcrossAssumptionSolves) {
    // Every solve ends with a backtrack to level 0 and a qhead reset
    // (set_qhead); re-solving under different assumptions must
    // re-propagate the same rows from scratch. A stale qhead would skip
    // trail entries and mispropagate the second call.
    Solver::Config cfg;
    cfg.enable_xor = true;
    Solver s(cfg);
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    const Var x = s.new_var(), y = s.new_var();
    ASSERT_TRUE(s.add_xor({{a, b, c}, true}));
    ASSERT_TRUE(s.add_xor({{c, x, y}, false}));

    ASSERT_EQ(s.solve_assuming({pos(a), pos(b), pos(x)}), Result::kSat);
    EXPECT_EQ(s.model()[c], LBool::kTrue);   // 1^1^c = 1 -> c = 1
    EXPECT_EQ(s.model()[y], LBool::kFalse);  // 1^1^y = 0 -> y = 0

    ASSERT_EQ(s.solve_assuming({pos(a), neg(b), pos(x)}), Result::kSat);
    EXPECT_EQ(s.model()[c], LBool::kFalse);  // 1^0^c = 1 -> c = 0
    EXPECT_EQ(s.model()[y], LBool::kTrue);   // 0^1^y = 0 -> y = 1

    // Contradictory assumptions (a=1, b=1 forces c=1): UNSAT under the
    // assumptions only -- the solver itself stays healthy.
    ASSERT_EQ(s.solve_assuming({pos(a), pos(b), neg(c)}), Result::kUnsat);
    EXPECT_TRUE(s.okay());

    // And a plain solve afterwards still works off the reset queue.
    ASSERT_EQ(s.solve(), Result::kSat);
}

TEST(Solver, XorMixedRandomDifferentialAgainstBruteForce) {
    // Random CNF+XOR instances through the native engine vs brute force:
    // deep backtracks, full-row runtime conflicts, reason-clause
    // materialisation and qhead resets all get exercised here.
    const uint64_t base_seed = testutil::test_seed();
    for (int inst = 0; inst < 30; ++inst) {
        Rng rng(base_seed * 1000003 + inst * 797 + 13);
        Cnf cnf = cnfgen::random_ksat(7, 12, 3, rng);
        const size_t n_xors = 2 + rng.below(3);
        for (size_t i = 0; i < n_xors; ++i) {
            XorConstraint x;
            const size_t len = 3 + rng.below(3);  // >= 3: survives GJ
            for (size_t j = 0; j < len; ++j)
                x.vars.push_back(static_cast<Var>(rng.below(cnf.num_vars)));
            x.rhs = rng.coin();
            cnf.xors.push_back(std::move(x));
        }
        const auto models = cnf_models(cnf);

        Solver::Config scfg;
        scfg.enable_xor = true;
        Solver s(scfg);
        const bool load_ok = s.load(cnf);
        const Result r = load_ok ? s.solve() : Result::kUnsat;
        if (models.empty()) {
            EXPECT_EQ(r, Result::kUnsat) << "instance " << inst;
        } else {
            ASSERT_EQ(r, Result::kSat) << "instance " << inst;
            uint32_t m = 0;
            for (size_t v = 0; v < cnf.num_vars; ++v)
                if (s.model()[v] == LBool::kTrue) m |= 1u << v;
            EXPECT_TRUE(std::find(models.begin(), models.end(), m) !=
                        models.end())
                << "instance " << inst << " returned a non-model";
        }
    }
}

// ---- brute-force equivalence sweeps -------------------------------------

class SolverRandom : public ::testing::TestWithParam<int> {};

TEST_P(SolverRandom, AgreesWithBruteForce) {
    Rng rng(GetParam());
    const size_t nv = 4 + rng.below(7);             // 4..10 vars
    const size_t nc = nv * 3 + rng.below(nv * 3);   // mixed density
    const Cnf cnf = cnfgen::random_ksat(nv, nc, 3, rng);
    const auto models = cnf_models(cnf);

    Solver s;
    const bool load_ok = s.load(cnf);
    const Result r = load_ok ? s.solve() : Result::kUnsat;
    if (models.empty()) {
        EXPECT_EQ(r, Result::kUnsat);
    } else {
        ASSERT_EQ(r, Result::kSat);
        uint32_t m = 0;
        for (size_t v = 0; v < nv; ++v)
            if (s.model()[v] == LBool::kTrue) m |= 1u << v;
        EXPECT_NE(std::find(models.begin(), models.end(), m), models.end())
            << "reported model does not satisfy the formula";
    }
}

TEST_P(SolverRandom, AllKindsAgree) {
    Rng rng(GetParam() + 10'000);
    const size_t nv = 5 + rng.below(6);
    const Cnf cnf = cnfgen::random_ksat(nv, nv * 4 + rng.below(nv), 3, rng);
    const bool expect_sat = !cnf_models(cnf).empty();
    for (const char* name : {"minisat", "lingeling", "cms"}) {
        const auto out = solve_cnf_with(cnf, name);
        ASSERT_TRUE(out.ok()) << name;
        EXPECT_EQ(out->result, expect_sat ? Result::kSat : Result::kUnsat)
            << name;
        if (out->result == Result::kSat) {
            EXPECT_TRUE(model_satisfies(cnf, out->model)) << name;
        }
    }
}

TEST_P(SolverRandom, XorRichInstancesAllKinds) {
    Rng rng(GetParam() + 20'000);
    const size_t len = 6 + rng.below(10);
    const bool satisfiable = rng.coin();
    const Cnf cnf = cnfgen::xor_cycle(len, satisfiable, rng);
    for (const char* name : {"minisat", "lingeling", "cms"}) {
        const auto out = solve_cnf_with(cnf, name);
        ASSERT_TRUE(out.ok()) << name;
        EXPECT_EQ(out->result,
                  satisfiable ? Result::kSat : Result::kUnsat)
            << name << " len=" << len;
        if (out->result == Result::kSat)
            EXPECT_TRUE(model_satisfies(cnf, out->model));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverRandom, ::testing::Range(0, 30));

// ---- preprocessor ---------------------------------------------------------

class PreprocessRandom : public ::testing::TestWithParam<int> {};

TEST_P(PreprocessRandom, PreservesSatisfiabilityAndExtendsModels) {
    Rng rng(GetParam() + 777);
    const size_t nv = 5 + rng.below(6);
    const Cnf cnf = cnfgen::random_ksat(nv, nv * 3 + rng.below(2 * nv), 3,
                                        rng);
    const bool expect_sat = !cnf_models(cnf).empty();

    Cnf simplified = cnf;
    Preprocessor prep;
    const bool pre_ok = prep.simplify(simplified);
    if (!pre_ok) {
        EXPECT_FALSE(expect_sat) << "preprocessor claimed UNSAT on SAT";
        return;
    }
    Solver s;
    const bool load_ok = s.load(simplified);
    const Result r = load_ok ? s.solve() : Result::kUnsat;
    EXPECT_EQ(r == Result::kSat, expect_sat);
    if (r == Result::kSat) {
        std::vector<LBool> model(s.model());
        model.resize(cnf.num_vars, LBool::kFalse);
        prep.extend_model(model);
        EXPECT_TRUE(model_satisfies(cnf, model))
            << "extended model must satisfy the ORIGINAL formula";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreprocessRandom, ::testing::Range(0, 30));

// ---- XOR recovery ---------------------------------------------------------

TEST(RecoverXors, FindsEncodedXor) {
    // Encode a ^ b ^ c = 1 as its 4 CNF clauses and recover it.
    Cnf cnf;
    cnf.num_vars = 3;
    for (uint32_t bits = 0; bits < 8; ++bits) {
        bool parity = false;
        for (int i = 0; i < 3; ++i) parity ^= (bits >> i) & 1;
        if (parity) continue;  // wrong-parity assignments are forbidden
        std::vector<Lit> clause;
        for (int i = 0; i < 3; ++i)
            clause.push_back(mk_lit(i, (bits >> i) & 1));
        cnf.add_clause(std::move(clause));
    }
    const auto xors = recover_xors(cnf);
    ASSERT_EQ(xors.size(), 1u);
    EXPECT_EQ(xors[0].vars, (std::vector<Var>{0, 1, 2}));
    EXPECT_TRUE(xors[0].rhs);
}

TEST(RecoverXors, IgnoresPartialGroups) {
    Cnf cnf;
    cnf.num_vars = 3;
    cnf.add_clause({pos(0), pos(1), pos(2)});
    cnf.add_clause({neg(0), neg(1), pos(2)});
    // Only 2 of the 4 clauses of an XOR: no recovery.
    EXPECT_TRUE(recover_xors(cnf).empty());
}

TEST(RecoverXors, BinaryEquivalence) {
    Cnf cnf;
    cnf.num_vars = 2;
    cnf.add_clause({pos(0), neg(1)});
    cnf.add_clause({neg(0), pos(1)});  // a == b, i.e. a ^ b = 0
    const auto xors = recover_xors(cnf);
    ASSERT_EQ(xors.size(), 1u);
    EXPECT_FALSE(xors[0].rhs);
}

/// Encode vars ^ ... = rhs as its full 2^(l-1) clause group.
void encode_xor(Cnf& cnf, const std::vector<Var>& vars, bool rhs) {
    const size_t l = vars.size();
    for (uint32_t bits = 0; bits < (1u << l); ++bits) {
        bool parity = false;
        for (size_t i = 0; i < l; ++i) parity ^= (bits >> i) & 1;
        if (parity == rhs) continue;  // satisfying assignment, allowed
        std::vector<Lit> clause;
        for (size_t i = 0; i < l; ++i)
            clause.push_back(mk_lit(vars[i], ((bits >> i) & 1) != 0));
        cnf.add_clause(std::move(clause));
    }
}

TEST(RecoverXors, MaxLenBoundaryIsInclusive) {
    // Size-2 (the lower bound) and size-max_len groups are recovered;
    // a size-(max_len + 1) group is not scanned at all.
    for (const size_t max_len : {3u, 4u, 5u}) {
        Cnf cnf;
        cnf.num_vars = 2 + max_len + (max_len + 1);
        encode_xor(cnf, {0, 1}, true);                      // size 2
        std::vector<Var> at_limit, beyond;
        for (size_t i = 0; i < max_len; ++i)
            at_limit.push_back(static_cast<Var>(2 + i));
        for (size_t i = 0; i < max_len + 1; ++i)
            beyond.push_back(static_cast<Var>(2 + max_len + i));
        encode_xor(cnf, at_limit, false);                   // size max_len
        encode_xor(cnf, beyond, true);                      // one too long
        const auto xors = recover_xors(cnf, max_len);
        ASSERT_EQ(xors.size(), 2u) << "max_len=" << max_len;
        EXPECT_EQ(xors[0].vars, (std::vector<Var>{0, 1}));
        EXPECT_TRUE(xors[0].rhs);
        EXPECT_EQ(xors[1].vars, at_limit);
        EXPECT_FALSE(xors[1].rhs);
    }
}

TEST(RecoverXors, DuplicateClausesInAGroupDoNotFakeAFullSet) {
    // 3 of the 4 clauses of a ^ b ^ c = 1, one of them repeated: the
    // group reaches the 2^(l-1) clause *count* but only 3 distinct sign
    // patterns -- no XOR may be recovered.
    Cnf cnf;
    cnf.num_vars = 3;
    cnf.add_clause({pos(0), pos(1), pos(2)});
    cnf.add_clause({neg(0), neg(1), pos(2)});
    cnf.add_clause({neg(0), pos(1), neg(2)});
    cnf.add_clause({neg(0), pos(1), neg(2)});  // duplicate
    EXPECT_TRUE(recover_xors(cnf).empty());

    // With the genuine fourth pattern added, recovery works even though
    // the duplicate is still present.
    cnf.add_clause({pos(0), neg(1), neg(2)});
    const auto xors = recover_xors(cnf);
    ASSERT_EQ(xors.size(), 1u);
    EXPECT_EQ(xors[0].vars, (std::vector<Var>{0, 1, 2}));
    EXPECT_TRUE(xors[0].rhs);
}

TEST(RecoverXors, OneClauseShortOfAFullGroupIsNotRecovered) {
    // All but one of the 8 clauses of a 4-variable XOR: no recovery.
    Cnf cnf;
    cnf.num_vars = 4;
    encode_xor(cnf, {0, 1, 2, 3}, true);
    ASSERT_EQ(cnf.clauses.size(), 8u);
    cnf.clauses.pop_back();
    EXPECT_TRUE(recover_xors(cnf).empty());
}

TEST(RecoverXors, BothPolaritiesOverOneVariableSet) {
    // a ^ b = 0 and a ^ b = 1 together (UNSAT, but recovery is purely
    // syntactic): both XORs are found over the same variable set.
    Cnf cnf;
    cnf.num_vars = 2;
    encode_xor(cnf, {0, 1}, false);
    encode_xor(cnf, {0, 1}, true);
    const auto xors = recover_xors(cnf);
    ASSERT_EQ(xors.size(), 2u);
    EXPECT_NE(xors[0].rhs, xors[1].rhs);
}

// ---- DIMACS ---------------------------------------------------------------

TEST(Dimacs, ParseBasic) {
    const Cnf cnf = read_dimacs_from_string(
        "c comment\np cnf 3 2\n1 -2 0\n-1 3 0\n");
    EXPECT_EQ(cnf.num_vars, 3u);
    ASSERT_EQ(cnf.clauses.size(), 2u);
    EXPECT_EQ(cnf.clauses[0][0].to_dimacs(), 1);
    EXPECT_EQ(cnf.clauses[0][1].to_dimacs(), -2);
}

TEST(Dimacs, ParseXorLines) {
    const Cnf cnf = read_dimacs_from_string("p cnf 3 1\nx1 -2 3 0\n");
    ASSERT_EQ(cnf.xors.size(), 1u);
    EXPECT_EQ(cnf.xors[0].vars, (std::vector<Var>{0, 1, 2}));
    // x1 ^ !x2 ^ x3 = 1  <=>  x1 ^ x2 ^ x3 = 0.
    EXPECT_FALSE(cnf.xors[0].rhs);
}

TEST(Dimacs, Errors) {
    EXPECT_THROW(read_dimacs_from_string("1 2 0\n"), DimacsError);
    EXPECT_THROW(read_dimacs_from_string("p dnf 1 1\n1 0\n"), DimacsError);
}

TEST(Dimacs, RoundTrip) {
    Rng rng(5);
    const Cnf cnf = cnfgen::random_ksat(10, 30, 3, rng);
    std::ostringstream out;
    write_dimacs(out, cnf);
    const Cnf back = read_dimacs_from_string(out.str());
    EXPECT_EQ(back.num_vars, cnf.num_vars);
    ASSERT_EQ(back.clauses.size(), cnf.clauses.size());
    for (size_t i = 0; i < cnf.clauses.size(); ++i)
        EXPECT_EQ(back.clauses[i], cnf.clauses[i]);
}

// ---- incremental solving under assumptions --------------------------------

TEST(SolverAssumptions, FailedAssumptionsDoNotPoisonTheInstance) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var();
    EXPECT_TRUE(s.add_clause({pos(a), pos(b)}));
    EXPECT_TRUE(s.add_clause({neg(a), pos(b)}));  // implies b under !a...

    // UNSAT only *under* the assumptions:
    EXPECT_EQ(s.solve_assuming({neg(a), neg(b)}), Result::kUnsat);
    EXPECT_TRUE(s.okay()) << "assumption failure must not set UNSAT";

    // The same instance keeps solving, warm:
    EXPECT_EQ(s.solve_assuming({pos(a)}), Result::kSat);
    EXPECT_EQ(s.model()[a], LBool::kTrue);
    EXPECT_EQ(s.solve_assuming({neg(a)}), Result::kSat);
    EXPECT_EQ(s.model()[b], LBool::kTrue) << "(!a | b) forces b under !a";
    EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SolverAssumptions, AssumptionSweepMatchesRefresh) {
    // A random 3-SAT instance: sweeping assumptions over one warm solver
    // must agree with a fresh solver per candidate.
    Rng rng(99);
    const Cnf cnf = cnfgen::random_ksat(12, 40, 3, rng);
    Solver warm;
    ASSERT_TRUE(warm.load(cnf));
    for (unsigned mask = 0; mask < 8; ++mask) {
        std::vector<Lit> assumptions;
        for (Var v = 0; v < 3; ++v)
            assumptions.push_back(mk_lit(v, !((mask >> v) & 1)));

        Solver fresh;
        ASSERT_TRUE(fresh.load(cnf));
        for (const Lit l : assumptions) ASSERT_TRUE(fresh.add_clause({l}));

        const Result expect = fresh.okay() ? fresh.solve() : Result::kUnsat;
        EXPECT_EQ(warm.solve_assuming(assumptions), expect)
            << "candidate " << mask;
        EXPECT_TRUE(warm.okay());
    }
}

TEST(SolverAssumptions, ContradictoryPairFailsImmediately) {
    Solver s;
    const Var a = s.new_var();
    (void)s.new_var();
    EXPECT_EQ(s.solve_assuming({pos(a), neg(a)}), Result::kUnsat);
    EXPECT_TRUE(s.okay());
    EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SolverAssumptions, XorEngineHonoursAssumptions) {
    Solver::Config cfg;
    cfg.enable_xor = true;
    Solver s(cfg);
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    EXPECT_TRUE(s.add_xor({{a, b, c}, true}));  // a ^ b ^ c = 1

    ASSERT_EQ(s.solve_assuming({pos(a), pos(b)}), Result::kSat);
    EXPECT_EQ(s.model()[c], LBool::kTrue) << "1 ^ 1 ^ c = 1 forces c = 1";
    ASSERT_EQ(s.solve_assuming({pos(a), neg(b)}), Result::kSat);
    EXPECT_EQ(s.model()[c], LBool::kFalse);
}

TEST(Dimacs, XorRoundTripPreservesSemantics) {
    Cnf cnf;
    cnf.num_vars = 4;
    cnf.xors.push_back({{0, 1, 3}, true});
    cnf.xors.push_back({{1, 2}, false});
    std::ostringstream out;
    write_dimacs(out, cnf);
    const Cnf back = read_dimacs_from_string(out.str());
    ASSERT_EQ(back.xors.size(), 2u);
    EXPECT_EQ(cnf_models(back), cnf_models(cnf));
}

// ---- search trajectories and warm-solver bounds ---------------------------

/// What one cold solve plus 20 warm solve_assuming calls did, summed
/// over the calls.
struct Trajectory {
    uint64_t conflicts = 0;
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t search_ticks = 0;
    uint64_t vivify_ticks = 0;
    size_t learnt_units = 0;
    size_t learnt_binaries = 0;
    std::string verdicts;  ///< 'S', 'U' or '?' per call, cold call first
};

/// Warm calls assume `n_assume` random variables among the first
/// `assume_vars`, each set to its `witness` value with probability 7/8
/// (to a random value without a witness); every call is capped at 2000
/// conflicts.
Trajectory run_trajectory(const Cnf& cnf, const Solver::Config& cfg,
                          size_t assume_vars, int n_assume,
                          const std::vector<bool>& witness, uint64_t seed) {
    Solver s(cfg);
    Trajectory t;
    const bool loaded = s.load(cnf);
    Rng rng(seed);
    for (int call = 0; call <= 20; ++call) {
        std::vector<Lit> assume;
        for (int k = 0; call > 0 && k < n_assume; ++k) {
            const Var v = static_cast<Var>(rng.below(assume_vars));
            const bool value =
                witness.empty() ? rng.coin() : witness[v] != (rng.below(8) == 0);
            assume.push_back(mk_lit(v, !value));
        }
        const Result r =
            loaded ? s.solve_assuming(assume, 2'000) : Result::kUnsat;
        t.verdicts += r == Result::kSat ? 'S' : r == Result::kUnsat ? 'U' : '?';
    }
    const Solver::Stats& st = s.stats();
    t.conflicts = st.conflicts;
    t.decisions = st.decisions;
    t.propagations = st.propagations;
    t.search_ticks = st.search_ticks;
    t.vivify_ticks = st.vivify_ticks;
    t.learnt_units = s.learnt_units().size();
    t.learnt_binaries = s.learnt_binaries().size();
    return t;
}

struct SrCnf {
    Cnf cnf;
    std::vector<bool> witness;
};

SrCnf sr_cnf(uint64_t seed) {
    Rng rng(seed);
    auto inst = crypto::SmallScaleAes({2, 2, 2, 4}).random_instance(rng);
    return {core::anf_to_cnf(inst.polys, inst.witness.size(), {}).cnf,
            std::move(inst.witness)};
}

TEST(Solver, GoldenTrajectory) {
    // Clause storage is an implementation detail: reorganising it (or
    // collecting its garbage) must not move a single decision. These
    // figures were recorded with the previous storage (one heap vector
    // per clause, no collection) and must repeat exactly. The XOR case
    // uses rows whose elimination yields no binary clause.
    Solver::Config legacy;
    legacy.inprocess.enabled = false;
    Solver::Config with_xor;
    with_xor.enable_xor = true;
    Rng xor_rng(17);
    Cnf xor_cnf = cnfgen::random_ksat(60, 150, 3, xor_rng);
    for (int i = 0; i < 12; ++i) {
        XorConstraint x;
        for (int j = 0; j < 5; ++j)
            x.vars.push_back(static_cast<Var>(xor_rng.below(60)));
        x.rhs = xor_rng.coin();
        xor_cnf.xors.push_back(std::move(x));
    }
    struct Case {
        const char* name;
        Cnf cnf;
        Solver::Config cfg;
        size_t assume_vars;
        int n_assume;
        std::vector<bool> witness;
        Trajectory want;
    };
    const SrCnf sr11 = sr_cnf(11), sr12 = sr_cnf(12);
    const Case cases[] = {
        {"sr-11", sr11.cnf, {}, 16, 8, sr11.witness,
         {7096, 9378, 1011834, 21606850, 2160593, 0, 0,
          "?UUSSUUSUUUUSUUSSSUUU"}},
        {"sr-12", sr12.cnf, {}, 16, 8, sr12.witness,
         {5977, 7962, 670668, 14256812, 1426356, 0, 1,
          "?UUSSUUSUUUUSUUSSSUUU"}},
        {"sr-11-legacy", sr11.cnf, legacy, 16, 8, sr11.witness,
         {5011, 6297, 494755, 10148549, 0, 0, 0, "?UUSSUUSUUUUSUUSSSUUU"}},
        {"ksat", cnfgen::random_ksat(120, 480, 3, xor_rng), {}, 120, 3, {},
         {2130, 2799, 62133, 637387, 59414, 0, 1, "SUSSUSSUSUSSSUUSSSUSS"}},
        {"xor", xor_cnf, with_xor, 60, 3, {},
         {74, 450, 2950, 7741, 744, 0, 0, "SSSSSSSSSSSSSSSSSSSSS"}},
    };
    for (const Case& c : cases) {
        const Trajectory got = run_trajectory(c.cnf, c.cfg, c.assume_vars,
                                              c.n_assume, c.witness, 5);
        const Trajectory& want = c.want;
        EXPECT_EQ(got.conflicts, want.conflicts) << c.name;
        EXPECT_EQ(got.decisions, want.decisions) << c.name;
        EXPECT_EQ(got.propagations, want.propagations) << c.name;
        EXPECT_EQ(got.search_ticks, want.search_ticks) << c.name;
        EXPECT_EQ(got.vivify_ticks, want.vivify_ticks) << c.name;
        EXPECT_EQ(got.learnt_units, want.learnt_units) << c.name;
        EXPECT_EQ(got.learnt_binaries, want.learnt_binaries) << c.name;
        EXPECT_EQ(got.verdicts, want.verdicts) << c.name;
    }
}

/// A planted `n`-variable random 3-SAT instance (every clause satisfied
/// by `planted`), for warm sweeps that need both verdicts.
Cnf planted_ksat(size_t n, size_t clauses, uint32_t planted, Rng& rng) {
    Cnf cnf = cnfgen::random_ksat(n, clauses, 3, rng);
    for (auto& clause : cnf.clauses) {
        const bool satisfied =
            std::any_of(clause.begin(), clause.end(), [&](Lit l) {
                return ((planted >> l.var()) & 1) != l.sign();
            });
        if (!satisfied) clause[0] = ~clause[0];
    }
    return cnf;
}

XorConstraint planted_xor(std::vector<Var> vars, uint32_t planted) {
    bool rhs = false;
    for (const Var v : vars) rhs ^= (planted >> v) & 1;
    return {std::move(vars), rhs};
}

/// Brute-force verdict of `models` (as from cnf_models) under assumptions.
Result oracle(const std::vector<uint32_t>& models,
              const std::vector<Lit>& assumptions) {
    for (const uint32_t m : models) {
        bool consistent = true;
        for (const Lit a : assumptions)
            if (((m >> a.var()) & 1) == a.sign()) consistent = false;
        if (consistent) return Result::kSat;
    }
    return Result::kUnsat;
}

std::vector<Lit> random_assumptions(size_t n, int count, Rng& rng) {
    std::vector<Lit> assume;
    for (int k = 0; k < count; ++k)
        assume.push_back(mk_lit(static_cast<Var>(rng.below(n)), rng.coin()));
    return assume;
}

TEST(Solver, GjeDoesNotRegrowWarmSolver) {
    // Three disjoint pairs of XOR rows {a,b,c,d}, {b,c,d,e}: elimination
    // turns each pair into a ^ e = rhs, which Gauss-Jordan adds as two
    // binary clauses. Those binaries are added once; 200 warm calls must
    // not add them again. Problem-clause vivification is off so that
    // nothing else changes the problem-clause count.
    Rng rng(testutil::test_seed() * 1000003 + 7);
    const size_t n = 16;
    const uint32_t planted = static_cast<uint32_t>(rng.below(1u << n));
    Cnf cnf = planted_ksat(n, 30, planted, rng);
    for (Var g = 0; g < 3; ++g) {
        const Var a = 5 * g;
        cnf.xors.push_back(planted_xor({a, a + 1, a + 2, a + 3}, planted));
        cnf.xors.push_back(planted_xor({a + 1, a + 2, a + 3, a + 4}, planted));
    }
    const std::vector<uint32_t> models = cnf_models(cnf);

    Solver::Config cfg;
    cfg.enable_xor = true;
    cfg.inprocess.vivify_irredundant = false;
    Solver s(cfg);
    ASSERT_TRUE(s.load(cnf));
    auto problem_clauses = [&s] {
        return inprocess::InstanceFeatures::extract(s).num_clauses;
    };
    const size_t loaded = problem_clauses();
    size_t after_first = 0;
    for (int call = 1; call <= 200; ++call) {
        const std::vector<Lit> assume =
            call == 1 ? std::vector<Lit>{} : random_assumptions(n, 3, rng);
        ASSERT_EQ(s.solve_assuming(assume), oracle(models, assume))
            << "call " << call;
        if (call == 1) after_first = problem_clauses();
    }
    EXPECT_GT(after_first, loaded) << "Gauss-Jordan must add binaries";
    EXPECT_EQ(problem_clauses(), after_first);
}

TEST(Solver, ArenaStaysBoundedUnderWarmXorCalls) {
    // The repeated-solve() loop of CryptoMiniSat's basic_test on an
    // XOR-propagating instance: 300 warm calls cycling through eight
    // assumption sets, so that learning levels off while every call still
    // searches. Each XOR implication above level 0 allocates a reason
    // clause that is garbage once its variable is unassigned; arena
    // collection must reclaim it. The arena saw-tooths between
    // collections, so the bound compares high-water marks: the largest
    // arena seen after any of the 300 calls is at most 1.10x the largest
    // after any of the first 100.
    Rng rng(testutil::test_seed() * 1000003 + 23);
    const size_t n = 16;
    const uint32_t planted = static_cast<uint32_t>(rng.below(1u << n));
    Cnf cnf = planted_ksat(n, 30, planted, rng);
    for (int i = 0; i < 6; ++i) {
        std::vector<Var> vars;
        for (int j = 0; j < 5; ++j)
            vars.push_back(static_cast<Var>(rng.below(n)));
        cnf.xors.push_back(planted_xor(std::move(vars), planted));
    }
    const std::vector<uint32_t> models = cnf_models(cnf);
    std::vector<std::vector<Lit>> sweep(8);
    for (auto& assume : sweep) assume = random_assumptions(n, 3, rng);

    Solver::Config cfg;
    cfg.enable_xor = true;
    Solver s(cfg);
    ASSERT_TRUE(s.load(cnf));
    size_t peak = 0, peak_at_100 = 0;
    uint64_t xor_props_at_100 = 0;
    for (int call = 1; call <= 300; ++call) {
        const std::vector<Lit>& assume = sweep[call % sweep.size()];
        ASSERT_EQ(s.solve_assuming(assume), oracle(models, assume))
            << "call " << call;
        ASSERT_TRUE(s.check_db_invariants()) << "call " << call;
        peak = std::max(peak, s.arena_words());
        if (call == 100) {
            peak_at_100 = peak;
            xor_props_at_100 = s.stats().xor_propagations;
        }
    }
    // Without collection, the implications of calls 101-300 alone would
    // leave well over a tenth of the arena as garbage.
    EXPECT_GT(s.stats().xor_propagations - xor_props_at_100, 100u);
    EXPECT_LE(static_cast<double>(peak), 1.10 * static_cast<double>(peak_at_100))
        << "arena high-water mark " << peak << " after 300 calls, "
        << peak_at_100 << " after 100";
}

}  // namespace
}  // namespace bosphorus::sat
