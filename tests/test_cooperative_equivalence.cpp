// Differential/fuzz harness for cooperative portfolios: random tiny ANF
// systems are solved cooperatively (workers sharing learnt facts through
// a SharedFactPool) and isolated (the oracle), across the default
// technique portfolio and the built-in backend portfolio. Verdicts must
// agree with each other AND with brute-force ground truth; SAT models
// must satisfy the original system. Seed-reproducible via
// BOSPHORUS_TEST_SEED (see tests/test_util.h).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "anf/polynomial.h"
#include "bosphorus/bosphorus.h"
#include "cnfgen/generators.h"
#include "runtime/fact_exchange.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus {
namespace {

using anf::Polynomial;
using testutil::random_instance;
using testutil::RandomInstance;

/// Small budgets: these instances have <= 9 variables, so every path
/// decides them in the first SAT step; the loop budget only bounds the
/// damage if something regresses.
EngineConfig tiny_config(uint64_t seed) {
    EngineConfig cfg;
    cfg.xl.m_budget = 14;
    cfg.elimlin.m_budget = 14;
    cfg.sat_conflicts_start = 1'000;
    cfg.sat_conflicts_max = 10'000;
    cfg.sat_conflicts_step = 1'000;
    cfg.max_iterations = 8;
    cfg.time_budget_s = 20.0;
    cfg.seed = seed;
    return cfg;
}

void expect_model_satisfies(const RandomInstance& inst,
                            const std::vector<bool>& model, size_t i,
                            const char* who) {
    ASSERT_GE(model.size(), inst.num_vars) << who << " instance " << i;
    std::vector<bool> a(model.begin(), model.begin() + inst.num_vars);
    for (const Polynomial& p : inst.polys)
        EXPECT_FALSE(p.evaluate(a))
            << who << " model violates the system on instance " << i;
}

size_t instance_count() {
    // >= 200 by default; BOSPHORUS_TEST_INSTANCES scales the fuzz budget
    // up (nightly) or down (never below the floor checked in CI).
    size_t n = 200;
    if (const char* v = std::getenv("BOSPHORUS_TEST_INSTANCES"))
        n = std::strtoul(v, nullptr, 10);
    return n;
}

// The tentpole differential: cooperative portfolio vs isolated oracle vs
// brute force, alternating between the technique portfolio and the
// heterogeneous backend portfolio (all built-in back ends).
TEST(CooperativeEquivalence, PortfolioMatchesIsolatedOracleAndTruth) {
    const uint64_t base_seed = testutil::test_seed();
    const size_t kInstances = instance_count();
    size_t n_sat = 0, n_unsat = 0;
    for (size_t i = 0; i < kInstances; ++i) {
        Rng rng(base_seed * 1000003 + i * 9176 + 11);
        const RandomInstance inst = random_instance(rng);
        const Problem problem = Problem::from_anf(inst.polys, inst.num_vars);
        const sat::Result truth =
            inst.models.empty() ? sat::Result::kUnsat : sat::Result::kSat;
        (truth == sat::Result::kSat ? n_sat : n_unsat)++;

        const EngineConfig cfg = tiny_config(base_seed + i);
        std::vector<PortfolioEntry> entries =
            (i % 2) ? default_backend_portfolio(cfg) : default_portfolio(cfg);

        const Result<PortfolioReport> iso = solve_portfolio(problem, entries, 2);
        ASSERT_TRUE(iso.ok()) << iso.status().to_string() << " instance " << i;

        for (PortfolioEntry& e : entries) e.config.cooperative = true;
        const Result<PortfolioReport> coop =
            solve_portfolio(problem, entries, 2);
        ASSERT_TRUE(coop.ok()) << coop.status().to_string() << " instance "
                               << i;

        ASSERT_EQ(iso->report.verdict, truth)
            << "isolated oracle diverged from brute force on instance " << i;
        ASSERT_EQ(coop->report.verdict, truth)
            << "cooperative verdict diverged from brute force on instance "
            << i << " (isolated agreed)";
        if (truth == sat::Result::kSat) {
            expect_model_satisfies(inst, iso->report.solution, i, "isolated");
            expect_model_satisfies(inst, coop->report.solution, i,
                                   "cooperative");
        }
    }
    // The draw must exercise both verdicts, or the fuzz proves nothing.
    EXPECT_GT(n_sat, 0u);
    EXPECT_GT(n_unsat, 0u);
}

// Deterministic import coverage: publish the unique model of a planted
// system into a pool by hand (sound: every unit is a consequence of a
// unique-model system), then solve cooperatively as a different worker.
// The facts MUST be imported and the verdict/model must stay correct.
TEST(CooperativeEquivalence, InjectedTrueUnitsAreImportedAndHarmless) {
    const uint64_t base_seed = testutil::test_seed();
    size_t covered = 0;
    for (size_t i = 0; covered < 20 && i < 2000; ++i) {
        Rng rng(base_seed * 7907 + i * 131 + 3);
        const RandomInstance inst = random_instance(rng);
        if (inst.models.size() != 1) continue;  // need a unique model
        ++covered;
        const uint32_t model = inst.models[0];

        auto pool = std::make_shared<runtime::SharedFactPool>(inst.num_vars);
        for (unsigned v = 0; v < inst.num_vars; ++v) {
            const bool value = (model >> v) & 1;
            // Polarity convention of the exchange: v == value is the
            // literal mk_lit(v, !value).
            ASSERT_TRUE(pool->publish_unit(0, sat::mk_lit(v, !value)));
        }

        EngineConfig cfg = tiny_config(base_seed + i);
        cfg.cooperative = true;
        cfg.fact_pool = pool;
        cfg.coop_worker = 1;  // not the publisher: imports are foreign
        Engine engine(cfg);
        const Result<Report> r =
            engine.run(Problem::from_anf(inst.polys, inst.num_vars));
        ASSERT_TRUE(r.ok()) << r.status().to_string();
        EXPECT_EQ(r->verdict, sat::Result::kSat) << "instance " << i;
        EXPECT_GT(r->facts_imported, 0u)
            << "published units never reached the importer, instance " << i;
        expect_model_satisfies(inst, r->solution, i, "importing");
        for (unsigned v = 0; v < inst.num_vars && v < r->solution.size(); ++v)
            EXPECT_EQ(r->solution[v], bool((model >> v) & 1));
    }
    ASSERT_EQ(covered, 20u) << "the draw produced too few unique-model "
                               "instances -- widen the search bound";
}

// Soundness under hostile-but-legal publishes on UNSAT bases: an UNSAT
// system entails every fact, so arbitrary injected units must never flip
// the verdict to SAT.
TEST(CooperativeEquivalence, InjectedUnitsNeverFlipUnsatToSat) {
    const uint64_t base_seed = testutil::test_seed();
    size_t covered = 0;
    for (size_t i = 0; covered < 20 && i < 400; ++i) {
        Rng rng(base_seed * 104729 + i * 17 + 7);
        const RandomInstance inst = random_instance(rng);
        if (!inst.models.empty()) continue;  // need UNSAT ground truth
        ++covered;

        auto pool = std::make_shared<runtime::SharedFactPool>(inst.num_vars);
        for (unsigned v = 0; v < inst.num_vars; ++v)
            pool->publish_unit(0, sat::mk_lit(v, rng.coin()));

        EngineConfig cfg = tiny_config(base_seed + i);
        cfg.cooperative = true;
        cfg.fact_pool = pool;
        cfg.coop_worker = 1;
        Engine engine(cfg);
        const Result<Report> r =
            engine.run(Problem::from_anf(inst.polys, inst.num_vars));
        ASSERT_TRUE(r.ok()) << r.status().to_string();
        EXPECT_EQ(r->verdict, sat::Result::kUnsat) << "instance " << i;
    }
    ASSERT_EQ(covered, 20u);
}

// The cooperative sweep: solve_all_incremental with fact sharing must
// return the same verdicts as the isolated sweep, candidate by candidate.
TEST(CooperativeEquivalence, CooperativeSweepMatchesIsolatedSweep) {
    const uint64_t base_seed = testutil::test_seed();
    Rng rng(base_seed * 6151 + 1);
    cnfgen::PlantedAnf planted =
        cnfgen::planted_quadratic_anf(16, 28, 3, 2, rng);
    const Problem base = Problem::from_anf(planted.polys, planted.num_vars);

    std::vector<AssumptionSet> candidates;
    for (uint32_t mask = 0; mask < 8; ++mask) {
        AssumptionSet set;
        for (unsigned v = 0; v < 3; ++v)
            set.emplace_back(v, bool((mask >> v) & 1));
        candidates.push_back(std::move(set));
    }

    EngineConfig cfg = tiny_config(base_seed);
    BatchEngine isolated(cfg);
    const auto iso = isolated.solve_all_incremental(base, candidates, 2);

    cfg.cooperative = true;
    BatchEngine cooperative(cfg);
    const auto coop = cooperative.solve_all_incremental(base, candidates, 2);

    ASSERT_EQ(iso.size(), candidates.size());
    ASSERT_EQ(coop.size(), candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
        ASSERT_TRUE(iso[i].ok()) << iso[i].status().to_string();
        ASSERT_TRUE(coop[i].ok()) << coop[i].status().to_string();
        EXPECT_EQ(coop[i]->verdict, iso[i]->verdict)
            << "sweep candidate " << i
            << " diverged between cooperative and isolated";
    }
}

}  // namespace
}  // namespace bosphorus
