// The pluggable SAT back-end layer: registry contents, SolverSpec
// parsing, IPASIR-style adapter behaviour (assumptions, failed(),
// interrupt), verdict equivalence of the built-in backends against brute
// force, the facade/Session/portfolio re-plumb, and the
// heterogeneous backend portfolio.
#include "bosphorus/sat_backend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "bosphorus/bosphorus.h"
#include "cnfgen/generators.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus {
namespace {

using sat::BackendRegistry;
using sat::Cnf;
using sat::LBool;
using sat::Lit;
using sat::mk_lit;
using sat::SolverSpec;
using testutil::cnf_models;

// ---- registry --------------------------------------------------------------

TEST(BackendRegistry, ListsTheFourBuiltins) {
    const auto infos = BackendRegistry::global().list();
    ASSERT_GE(infos.size(), 4u);
    for (const char* name : {"minisat", "lingeling", "cms", "dimacs-exec"}) {
        EXPECT_TRUE(BackendRegistry::global().contains(name)) << name;
        bool found = false;
        for (const auto& info : infos) {
            if (info.name == name) {
                found = true;
                EXPECT_TRUE(info.builtin) << name;
                EXPECT_FALSE(info.description.empty()) << name;
            }
        }
        EXPECT_TRUE(found) << name;
    }
}

TEST(BackendRegistry, UnknownNameFailsWithTheKnownList) {
    const auto r = BackendRegistry::global().create(SolverSpec{"nope"});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("minisat"), std::string::npos);
}

TEST(BackendRegistry, BuiltinsRejectArguments) {
    const auto r = BackendRegistry::global().create(SolverSpec{"minisat:x"});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BackendRegistry, DuplicateAndMalformedRegistrationsFail) {
    auto& reg = BackendRegistry::global();
    const auto factory = [](const std::string&)
        -> Result<std::unique_ptr<sat::SolverBackend>> {
        return Status::internal("never created");
    };
    EXPECT_FALSE(reg.register_backend({"minisat", "dup", false}, factory).ok());
    EXPECT_FALSE(reg.register_backend({"", "empty", false}, factory).ok());
    EXPECT_FALSE(reg.register_backend({"a:b", "colon", false}, factory).ok());
    EXPECT_FALSE(
        reg.register_backend({"no-factory", "", false}, nullptr).ok());
}

TEST(BackendRegistry, UserRegistrationIsVisibleAndUsable) {
    auto& reg = BackendRegistry::global();
    // A trivial user backend: minisat under another name.
    const Status st = reg.register_backend(
        {"test-user-backend", "minisat in a trench coat", false},
        [](const std::string&) {
            return BackendRegistry::global().create(SolverSpec{"minisat"});
        });
    ASSERT_TRUE(st.ok()) << st.to_string();
    EXPECT_TRUE(reg.contains("test-user-backend"));

    auto backend = reg.create(SolverSpec{"test-user-backend"});
    ASSERT_TRUE(backend.ok());
    (*backend)->ensure_vars(1);
    EXPECT_TRUE((*backend)->add_clause({mk_lit(0, false)}));
    EXPECT_EQ((*backend)->solve(), sat::Result::kSat);
    EXPECT_EQ((*backend)->value(0), LBool::kTrue);
}

TEST(SolverSpec, SplitsNameAndArgument) {
    EXPECT_EQ(SolverSpec{"cms"}.backend_name(), "cms");
    EXPECT_EQ(SolverSpec{"cms"}.argument(), "");
    const SolverSpec s{"dimacs-exec:kissat -q --time=10"};
    EXPECT_EQ(s.backend_name(), "dimacs-exec");
    EXPECT_EQ(s.argument(), "kissat -q --time=10");
    // The argument may itself contain ':'.
    EXPECT_EQ(SolverSpec{"dimacs-exec:a:b"}.argument(), "a:b");
    // Default = the documented default backend.
    EXPECT_EQ(SolverSpec{}.spec, sat::kDefaultSolverName);
}

// ---- verdict equivalence across the built-in backends -----------------------

class BackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalence, RegistryPathMatchesBruteForce) {
    Rng rng(GetParam() + 1);
    const size_t nv = 5 + rng.below(6);
    const Cnf cnf = cnfgen::random_ksat(nv, nv * 4 + rng.below(nv), 3, rng);
    const bool expect_sat = !cnf_models(cnf).empty();

    for (const char* name : {"minisat", "lingeling", "cms"}) {
        const auto out = sat::solve_cnf_with(cnf, name);
        ASSERT_TRUE(out.ok()) << name;
        EXPECT_EQ(out->result,
                  expect_sat ? sat::Result::kSat : sat::Result::kUnsat)
            << name;
        if (out->result == sat::Result::kSat)
            EXPECT_TRUE(sat::model_satisfies(cnf, out->model)) << name;
    }
}

TEST_P(BackendEquivalence, XorRichInstancesAllBackends) {
    Rng rng(GetParam() + 31'000);
    const size_t len = 6 + rng.below(10);
    const bool satisfiable = rng.coin();
    const Cnf cnf = cnfgen::xor_cycle(len, satisfiable, rng);
    for (const char* name : {"minisat", "lingeling", "cms"}) {
        const auto out = sat::solve_cnf_with(cnf, name);
        ASSERT_TRUE(out.ok()) << name;
        EXPECT_EQ(out->result,
                  satisfiable ? sat::Result::kSat : sat::Result::kUnsat)
            << name << " len=" << len;
        if (out->result == sat::Result::kSat)
            EXPECT_TRUE(sat::model_satisfies(cnf, out->model)) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalence, ::testing::Range(0, 25));

// ---- IPASIR semantics through the interface --------------------------------

class BackendAssumptions : public ::testing::TestWithParam<const char*> {};

TEST_P(BackendAssumptions, FailedAssumptionsDoNotPoisonLaterSolves) {
    auto backend = BackendRegistry::global().create(SolverSpec{GetParam()});
    ASSERT_TRUE(backend.ok());
    sat::SolverBackend& b = **backend;

    b.ensure_vars(2);
    ASSERT_TRUE(b.add_clause({mk_lit(0, false), mk_lit(1, false)}));
    ASSERT_TRUE(b.add_clause({mk_lit(0, true), mk_lit(1, false)}));

    // UNSAT only *under* the assumptions:
    b.assume(mk_lit(0, true));
    b.assume(mk_lit(1, true));
    EXPECT_EQ(b.solve(), sat::Result::kUnsat);
    EXPECT_TRUE(b.okay()) << "assumption failure must not set UNSAT";
    // failed() must never under-approximate: either assumption may have
    // fed the refutation, so every built-in blames both (conservative).
    EXPECT_TRUE(b.failed(mk_lit(0, true)));
    EXPECT_TRUE(b.failed(mk_lit(1, true)));
    if (b.supports_assumptions()) {
        // Native-assumption backends track the actual assumption set;
        // degraded ones answer only for literals that were assumed.
        EXPECT_FALSE(b.failed(mk_lit(0, false)))
            << "a literal never assumed cannot be a failed assumption";
    }

    // Assumptions were cleared by the solve; the instance keeps solving:
    EXPECT_EQ(b.solve(), sat::Result::kSat);
    b.assume(mk_lit(0, true));
    EXPECT_EQ(b.solve(), sat::Result::kSat);
    EXPECT_EQ(b.value(1), LBool::kTrue) << "(!a | b) forces b under !a";
    b.assume(mk_lit(0, false));
    EXPECT_EQ(b.solve(), sat::Result::kSat);
    EXPECT_EQ(b.value(0), LBool::kTrue);
}

TEST_P(BackendAssumptions, SweepMatchesFreshSolvers) {
    Rng rng(77);
    const Cnf cnf = cnfgen::random_ksat(10, 36, 3, rng);
    const auto models = cnf_models(cnf);

    auto backend = BackendRegistry::global().create(SolverSpec{GetParam()});
    ASSERT_TRUE(backend.ok());
    sat::SolverBackend& b = **backend;
    ASSERT_TRUE(b.load(cnf));

    for (unsigned mask = 0; mask < 8; ++mask) {
        for (sat::Var v = 0; v < 3; ++v)
            b.assume(mk_lit(v, !((mask >> v) & 1)));
        // Brute-force truth under the three fixed values.
        bool expect_sat = false;
        for (const uint32_t m : models) {
            if ((m & 7u) == mask) { expect_sat = true; break; }
        }
        EXPECT_EQ(b.solve(),
                  expect_sat ? sat::Result::kSat : sat::Result::kUnsat)
            << GetParam() << " candidate " << mask;
        EXPECT_TRUE(b.okay());
    }
}

INSTANTIATE_TEST_SUITE_P(Builtins, BackendAssumptions,
                         ::testing::Values("minisat", "lingeling", "cms"));

TEST(BackendInterrupt, StopsARunningSolveFromAnotherThread) {
    // A hard pigeonhole instance that would run for a long time.
    auto backend = BackendRegistry::global().create(SolverSpec{"minisat"});
    ASSERT_TRUE(backend.ok());
    sat::SolverBackend& b = **backend;
    ASSERT_TRUE(b.load(cnfgen::pigeonhole(9)));

    std::thread stopper([&b] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        b.interrupt();
    });
    const auto t0 = std::chrono::steady_clock::now();
    const sat::Result r = b.solve(/*conflict_budget=*/-1, /*timeout_s=*/30.0);
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    stopper.join();
    EXPECT_EQ(r, sat::Result::kUnknown);
    EXPECT_LT(waited, 10.0) << "interrupt must land promptly";

    // Sticky until cleared, then the backend works again.
    EXPECT_EQ(b.solve(-1, 1.0), sat::Result::kUnknown);
    b.clear_interrupt();
    b.ensure_vars(b.num_vars());
    EXPECT_EQ(b.solve(/*conflict_budget=*/5), sat::Result::kUnknown)
        << "cleared interrupt resumes normal (budget-bounded) solving";
}

TEST(BackendInterrupt, TerminateCallbackStopsTheSolve) {
    auto backend = BackendRegistry::global().create(SolverSpec{"cms"});
    ASSERT_TRUE(backend.ok());
    sat::SolverBackend& b = **backend;
    ASSERT_TRUE(b.load(cnfgen::pigeonhole(9)));
    std::atomic<bool> stop{false};
    b.set_terminate_callback([&stop] { return stop.load(); });
    stop.store(true);
    EXPECT_EQ(b.solve(-1, 30.0), sat::Result::kUnknown);
}

// ---- statistics and adapter transparency -----------------------------------

void expect_stats_eq(const sat::Solver::Stats& a, const sat::Solver::Stats& b,
                     const std::string& where) {
    EXPECT_EQ(a.conflicts, b.conflicts) << where;
    EXPECT_EQ(a.decisions, b.decisions) << where;
    EXPECT_EQ(a.propagations, b.propagations) << where;
    EXPECT_EQ(a.restarts, b.restarts) << where;
    EXPECT_EQ(a.learnt_clauses, b.learnt_clauses) << where;
    EXPECT_EQ(a.deleted_clauses, b.deleted_clauses) << where;
    EXPECT_EQ(a.xor_propagations, b.xor_propagations) << where;
    EXPECT_EQ(a.vivified_literals, b.vivified_literals) << where;
    EXPECT_EQ(a.vivified_clauses, b.vivified_clauses) << where;
    EXPECT_EQ(a.vivify_passes, b.vivify_passes) << where;
    EXPECT_EQ(a.reconf_decisions, b.reconf_decisions) << where;
    EXPECT_EQ(a.db_reductions, b.db_reductions) << where;
    EXPECT_EQ(a.search_ticks, b.search_ticks) << where;
    EXPECT_EQ(a.vivify_ticks, b.vivify_ticks) << where;
}

/// A decorator that aggregates its attempts' counters must not drop any
/// field: one attempt of `resilient:minisat` reports exactly what a bare
/// `minisat` reports on the same instance, in-processing counters
/// included.
TEST(BackendStats, ResilientSingleAttemptMatchesBareBackend) {
    const Cnf cnf = cnfgen::pigeonhole(7);
    const auto bare = sat::solve_cnf_with(cnf, "minisat", -1, 5'000);
    const auto wrapped =
        sat::solve_cnf_with(cnf, "resilient:minisat,retries=0", -1, 5'000);
    ASSERT_TRUE(bare.ok() && wrapped.ok());
    ASSERT_GT(bare->stats.db_reductions, 0u)
        << "the instance must exercise the tiered learnt DB";
    ASSERT_GT(bare->stats.vivify_ticks, 0u)
        << "the instance must exercise vivification";
    EXPECT_EQ(wrapped->result, bare->result);
    expect_stats_eq(wrapped->stats, bare->stats, "resilient:minisat");
}

/// The native in-loop backend is the bare solver behind the interface:
/// over repeated assume + budgeted solve rounds it must agree with a
/// `sat::Solver` driven directly -- verdict, model, every counter, and
/// the learnt facts the loop harvests.
class BackendTransparency : public ::testing::TestWithParam<bool> {};

TEST_P(BackendTransparency, NativeBackendIsTheBareSolver) {
    sat::Solver::Config cfg;
    cfg.enable_xor = true;
    if (!GetParam()) {
        cfg.inprocess.enabled = false;
        cfg.inprocess.profile = sat::inprocess::ProfileId::kFixed;
    }

    // Near the 3-SAT threshold: the rounds mix SAT, UNSAT-under-
    // assumptions and budget-exhausted verdicts.
    Rng rng(1);
    const size_t nv = 150;
    Cnf cnf = cnfgen::random_ksat(nv, 600, 3, rng);
    for (int i = 0; i < 6; ++i) {
        sat::XorConstraint x;
        for (int j = 0; j < 3 + static_cast<int>(rng.below(3)); ++j)
            x.vars.push_back(static_cast<sat::Var>(rng.below(nv)));
        x.rhs = rng.coin();
        cnf.xors.push_back(std::move(x));
    }

    sat::Solver bare(cfg);
    const auto native = sat::make_native_backend(cfg);
    EXPECT_EQ(native->name(), "native");
    EXPECT_TRUE(native->supports_native_xor());
    ASSERT_EQ(native->load(cnf), bare.load(cnf));

    size_t decided = 0, undecided = 0;
    for (int round = 0; round < 30; ++round) {
        const std::string where = "round " + std::to_string(round);
        std::vector<Lit> assumptions;
        for (int k = 0; k < static_cast<int>(rng.below(4)); ++k)
            assumptions.push_back(
                mk_lit(static_cast<sat::Var>(rng.below(nv)), rng.coin()));
        for (const Lit a : assumptions) native->assume(a);
        const int64_t budget = 50 + 25 * round;
        const sat::Result want = bare.solve_assuming(assumptions, budget);
        const sat::Result got = native->solve(budget);
        ASSERT_EQ(got, want) << where;
        EXPECT_EQ(native->okay(), bare.okay()) << where;
        if (got == sat::Result::kSat) {
            for (sat::Var v = 0; v < nv; ++v) {
                const bool bare_true = bare.model()[v] == LBool::kTrue;
                ASSERT_EQ(native->value(v) == LBool::kTrue, bare_true)
                    << where << " var " << v;
            }
        }
        ++(got == sat::Result::kUnknown ? undecided : decided);
        expect_stats_eq(native->stats(), bare.stats(), where);
        EXPECT_EQ(native->learnt_units(), bare.learnt_units()) << where;
        EXPECT_EQ(native->learnt_binaries(), bare.learnt_binaries()) << where;
    }
    EXPECT_GT(decided, 0u) << "some rounds must reach a verdict";
    EXPECT_GT(undecided, 0u) << "some rounds must exhaust their budget";
}

INSTANTIATE_TEST_SUITE_P(Configs, BackendTransparency,
                         ::testing::Values(true, false));

// ---- re-plumbed consumers --------------------------------------------------

/// A tiny ANF system with a unique solution, solved through the facade
/// with every built-in backend spec: the Table II protocol must be
/// backend-agnostic.
TEST(SolveWithBackends, FacadeVerdictsAgreeAcrossBackends) {
    using anf::Polynomial;
    std::vector<Polynomial> polys;
    // x0 + 1 = 0; x0*x1 = 0; x1 + x2 + 1 = 0  =>  unique model (1, 0, 1).
    polys.push_back(Polynomial::variable(0) + Polynomial::constant(true));
    polys.push_back(Polynomial::variable(0) * Polynomial::variable(1));
    polys.push_back(Polynomial::variable(1) + Polynomial::variable(2) +
                    Polynomial::constant(true));
    const Problem problem = Problem::from_anf(polys, 3);

    for (const char* name : {"minisat", "lingeling", "cms"}) {
        SolveConfig cfg;
        cfg.solver = name;
        cfg.engine.use_sat = false;  // keep the loop light
        const auto out = solve(problem, cfg);
        ASSERT_TRUE(out.ok()) << name;
        EXPECT_EQ(out->result, sat::Result::kSat) << name;
        EXPECT_TRUE(out->model_verified) << name;
    }

    SolveConfig bad;
    bad.solver = "no-such-backend";
    const auto out = solve(problem, bad);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

/// The in-loop SAT step routed through a registry backend must reach the
/// same verdicts as the native in-loop solver.
TEST(SolveWithBackends, EngineLoopBackendMatchesNative) {
    Rng rng(7);
    const Cnf cnf = cnfgen::random_ksat(9, 32, 3, rng);
    const bool expect_sat = !cnf_models(cnf).empty();
    const Problem problem = Problem::from_cnf(cnf);

    for (const std::string backend : {"", "minisat", "cms"}) {
        EngineConfig cfg;
        cfg.use_xl = false;
        cfg.use_elimlin = false;  // force the SAT technique to decide
        cfg.sat_backend = backend;
        Engine engine(cfg);
        const auto rep = engine.run(problem);
        ASSERT_TRUE(rep.ok()) << "'" << backend << "'";
        EXPECT_EQ(rep->verdict,
                  expect_sat ? sat::Result::kSat : sat::Result::kUnsat)
            << "'" << backend << "'";
    }

    EngineConfig bad;
    bad.use_xl = false;
    bad.use_elimlin = false;
    bad.sat_backend = "no-such-backend";
    Engine engine(bad);
    const auto rep = engine.run(problem);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument);
}

// ---- heterogeneous portfolios ----------------------------------------------

TEST(BackendPortfolio, BuildsOneEntryPerBackendSpec) {
    EngineConfig base;
    base.seed = 42;
    const auto entries =
        backend_portfolio(base, {"minisat", "cms", "", "dimacs-exec:foo"});
    ASSERT_EQ(entries.size(), 4u);
    EXPECT_EQ(entries[0].name, "minisat");
    EXPECT_EQ(entries[0].config.sat_backend, "minisat");
    EXPECT_EQ(entries[2].name, "native");
    EXPECT_EQ(entries[2].config.sat_backend, "");
    EXPECT_EQ(entries[3].config.sat_backend, "dimacs-exec:foo");
    for (const auto& e : entries)
        EXPECT_EQ(e.config.seed, base.seed) << "backend races share the seed";
}

TEST(BackendPortfolio, RacesTheBuiltinsToACorrectVerdict) {
    Rng rng(11);
    const Cnf cnf = cnfgen::random_ksat(9, 34, 3, rng);
    const bool expect_sat = !cnf_models(cnf).empty();
    const Problem problem = Problem::from_cnf(cnf);

    EngineConfig base;
    base.use_xl = false;
    base.use_elimlin = false;  // the race is decided inside the SAT step
    const auto rep =
        solve_portfolio(problem, default_backend_portfolio(base), 2);
    ASSERT_TRUE(rep.ok()) << rep.status().to_string();
    EXPECT_TRUE(rep->decided());
    EXPECT_EQ(rep->report.verdict,
              expect_sat ? sat::Result::kSat : sat::Result::kUnsat);
    ASSERT_EQ(rep->outcomes.size(), 3u);
    EXPECT_EQ(rep->outcomes[0].name, "minisat");
    EXPECT_EQ(rep->outcomes[1].name, "lingeling");
    EXPECT_EQ(rep->outcomes[2].name, "cms");
}

}  // namespace
}  // namespace bosphorus
