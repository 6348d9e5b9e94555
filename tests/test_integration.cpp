// Cross-module integration tests: full cryptanalytic pipelines from
// instance generation through Bosphorus to verified solutions, plus solver
// robustness under stress.
#include <gtest/gtest.h>

#include "anf/anf_parser.h"
#include "bosphorus/sat_backend.h"
#include "bosphorus/solve.h"
#include "cnfgen/generators.h"
#include "crypto/sha256.h"
#include "crypto/simon.h"
#include "sat/preprocess.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus {
namespace {

TEST(Integration, BitcoinNonceRecoveredAndReverified) {
    // End-to-end: encode a weakened nonce-finding instance, solve it, pull
    // the nonce out of the model, and re-hash to confirm the k zero bits.
    Rng rng(1234);
    const unsigned k = 5, rounds = 16;
    const auto inst = crypto::encode_bitcoin_nonce(k, rounds, rng);

    EngineConfig opt;
    opt.xl.m_budget = 18;
    opt.elimlin.m_budget = 18;
    opt.sat_conflicts_start = 50'000;
    opt.time_budget_s = 60.0;
    const auto res =
        Engine(opt).run(Problem::from_anf(inst.polys, inst.num_vars));
    ASSERT_TRUE(res.ok());

    std::vector<bool> solution;
    if (res->verdict == sat::Result::kSat) {
        solution = res->solution;
    } else {
        ASSERT_NE(res->verdict, sat::Result::kUnsat);
        const auto so =
            sat::solve_cnf_with(res->to_cnf(opt.conv).cnf, "cms", 60.0);
        ASSERT_TRUE(so.ok());
        ASSERT_EQ(so->result, sat::Result::kSat);
        solution.resize(inst.num_vars);
        for (size_t v = 0; v < inst.num_vars; ++v)
            solution[v] = so->model[v] == sat::LBool::kTrue;
    }

    EXPECT_TRUE(inst.meets_target(inst.nonce_of(solution)))
        << "recovered nonce fails the difficulty check";
}

TEST(Integration, SimonSolutionSatisfiesAllPairs) {
    // A solved Simon instance's key must reproduce every ciphertext (the
    // recovered key can differ from the generation key only if both are
    // consistent with all pairs -- verify via the ANF itself).
    const crypto::Simon32 simon(5);
    Rng rng(77);
    const auto inst = simon.encode(4, rng);
    SolveConfig cfg;
    cfg.solver = "cms";
    cfg.preprocess = true;
    cfg.engine.xl.m_budget = 20;
    cfg.engine.elimlin.m_budget = 20;
    cfg.timeout_s = 60.0;
    cfg.engine_budget_s = 20.0;
    const auto out = solve(Problem::from_anf(inst.polys, inst.num_vars), cfg);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->result, sat::Result::kSat);
    EXPECT_TRUE(out->model_verified || out->solved_in_loop);
}

TEST(Integration, AnfFileRoundTripThroughTool) {
    // parse -> process -> write -> re-parse -> same solution set.
    const std::string text =
        "x1*x2 + x3\n"
        "x2*x3 + x1 + 1\n"
        "x3 + x4\n";
    const auto sys = anf::parse_system_from_string(text);
    EngineConfig opt;
    opt.xl.m_budget = 16;
    opt.elimlin.m_budget = 16;
    opt.use_sat = false;  // keep the processed system non-collapsed
    const auto res = Engine(opt).run(Problem::from_anf(sys.polynomials, 4));
    ASSERT_TRUE(res.ok());

    std::ostringstream out;
    anf::write_system(out, res->processed_anf);
    const auto again = anf::parse_system_from_string(out.str());
    EXPECT_EQ(testutil::anf_models(sys.polynomials, 4),
              testutil::anf_models(again.polynomials, 4));
}

TEST(Integration, GroebnerPlusSatOnSimon) {
    // The Groebner-extended loop stays sound on a real cipher instance.
    const crypto::Simon32 simon(4);
    Rng rng(9);
    const auto inst = simon.encode(2, rng);
    EngineConfig opt;
    opt.use_groebner = true;
    opt.groebner.max_pair_degree = 3;
    opt.xl.m_budget = 18;
    opt.elimlin.m_budget = 18;
    opt.time_budget_s = 30.0;
    const auto res =
        Engine(opt).run(Problem::from_anf(inst.polys, inst.num_vars));
    ASSERT_TRUE(res.ok());
    EXPECT_NE(res->verdict, sat::Result::kUnsat)
        << "satisfiable instance (witness exists) flagged UNSAT";
}

// ---- solver robustness ----------------------------------------------------

TEST(SolverStress, RepeatedSolveCallsAreConsistent) {
    Rng rng(11);
    const sat::Cnf cnf = cnfgen::random_ksat(30, 126, 3, rng);
    sat::Solver solver;
    ASSERT_TRUE(solver.load(cnf));
    const sat::Result first = solver.solve();
    const sat::Result second = solver.solve();
    EXPECT_EQ(first, second) << "re-solving must not change the verdict";
}

TEST(SolverStress, BudgetedThenUnboundedSolve) {
    // Run out of budget, then finish the job on the same solver instance;
    // learnt clauses from the first call must stay sound.
    Rng rng(12);
    const sat::Cnf cnf = cnfgen::pigeonhole(6);
    sat::Solver solver;
    ASSERT_TRUE(solver.load(cnf));
    EXPECT_EQ(solver.solve(/*conflict_budget=*/50), sat::Result::kUnknown);
    EXPECT_EQ(solver.solve(), sat::Result::kUnsat);
}

TEST(SolverStress, ReduceDbKeepsCorrectness) {
    // Enough conflicts to trigger several clause-database reductions.
    Rng rng(13);
    for (int i = 0; i < 3; ++i) {
        const sat::Cnf cnf = cnfgen::random_ksat(60, 258, 3, rng);
        const auto ref = sat::solve_cnf_with(cnf, "lingeling");
        const auto out = sat::solve_cnf_with(cnf, "minisat");
        ASSERT_TRUE(ref.ok() && out.ok());
        EXPECT_EQ(out->result == sat::Result::kSat,
                  ref->result == sat::Result::kSat);
        if (out->result == sat::Result::kSat)
            EXPECT_TRUE(sat::model_satisfies(cnf, out->model));
    }
}

TEST(SolverStress, LearntBinariesAreImplied) {
    Rng rng(14);
    for (int inst = 0; inst < 8; ++inst) {
        const sat::Cnf cnf = cnfgen::random_ksat(9, 34, 3, rng);
        const auto models = testutil::cnf_models(cnf);
        if (models.empty()) continue;
        sat::Solver solver;
        if (!solver.load(cnf)) continue;
        solver.solve();
        for (const auto& b : solver.learnt_binaries()) {
            for (const uint32_t m : models) {
                const bool v0 = ((m >> b[0].var()) & 1) != b[0].sign();
                const bool v1 = ((m >> b[1].var()) & 1) != b[1].sign();
                EXPECT_TRUE(v0 || v1)
                    << "learnt binary clause contradicts a model";
            }
        }
    }
}

TEST(SolverStress, PreprocessorThenXorEngine) {
    // Lingeling-like preprocessing freezes XOR variables; combining a
    // preprocessed load with native XOR constraints must stay sound.
    Rng rng(15);
    sat::Cnf cnf = cnfgen::random_ksat(15, 45, 3, rng);
    cnf.xors.push_back({{0, 1, 2, 3}, true});
    cnf.xors.push_back({{3, 4, 5}, false});
    const auto brute = testutil::cnf_models(cnf);
    sat::Cnf work = cnf;
    sat::Preprocessor prep;
    const bool ok = prep.simplify(work);
    if (!ok) {
        EXPECT_TRUE(brute.empty());
        return;
    }
    sat::Solver::Config scfg;
    scfg.enable_xor = true;
    sat::Solver solver(scfg);
    const bool load_ok = solver.load(work);
    const sat::Result r = load_ok ? solver.solve() : sat::Result::kUnsat;
    EXPECT_EQ(r == sat::Result::kSat, !brute.empty());
    if (r == sat::Result::kSat) {
        std::vector<sat::LBool> model(solver.model());
        model.resize(cnf.num_vars, sat::LBool::kFalse);
        prep.extend_model(model);
        EXPECT_TRUE(sat::model_satisfies(cnf, model));
    }
}

}  // namespace
}  // namespace bosphorus
