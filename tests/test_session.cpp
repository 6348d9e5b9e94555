// Tests for the incremental Session API: assumptions, push/pop scopes,
// warm-started re-solving, UNSAT-at-scope recovery, cancellation
// reusability, the sweep runtime, and the version/move-only satellites --
// written against include/bosphorus/ alone.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bosphorus/bosphorus.h"
#include "cnfgen/generators.h"
#include "test_util.h"

namespace bosphorus {
namespace {

using anf::Polynomial;

/// The paper's section II-E worked example; unique solution 1,1,1,1,0.
Problem paper_example() {
    auto p = Problem::from_anf_text(
        "x1*x2 + x3 + x4 + 1\n"
        "x1*x2*x3 + x1 + x3 + 1\n"
        "x1*x3 + x3*x4*x5 + x3\n"
        "x2*x3 + x3*x5 + 1\n"
        "x2*x3 + x5 + 1\n");
    EXPECT_TRUE(p.ok());
    return *p;
}

EngineConfig small_config() {
    EngineConfig cfg;
    cfg.xl.m_budget = 16;
    cfg.elimlin.m_budget = 16;
    cfg.sat_conflicts_start = 1000;
    cfg.sat_conflicts_max = 10'000;
    cfg.sat_conflicts_step = 1000;
    cfg.max_iterations = 8;
    cfg.time_budget_s = 10.0;
    return cfg;
}

/// A planted overdetermined quadratic system (near-certainly a unique
/// model) plus its planted assignment, shared by the sweep tests.
struct SweepInstance {
    Problem problem;
    std::vector<bool> planted;
};

SweepInstance sweep_instance(uint64_t seed, size_t num_vars = 24,
                             size_t num_eqs = 40) {
    Rng rng(testutil::test_seed() * 1000003 + seed);
    cnfgen::PlantedAnf inst =
        cnfgen::planted_quadratic_anf(num_vars, num_eqs, 3, 2, rng);
    return {Problem::from_anf(std::move(inst.polys), inst.num_vars),
            std::move(inst.planted)};
}

// ---- version / move-only satellites ---------------------------------------

TEST(Version, MacrosAndStringAgree) {
    const std::string expected = std::to_string(BOSPHORUS_VERSION_MAJOR) +
                                 "." +
                                 std::to_string(BOSPHORUS_VERSION_MINOR);
    EXPECT_EQ(version(), expected);
}

TEST(MoveOnly, EngineAndSessionCannotBeCopied) {
    static_assert(!std::is_copy_constructible_v<Engine>);
    static_assert(!std::is_copy_assignable_v<Engine>);
    static_assert(std::is_move_constructible_v<Engine>);
    static_assert(std::is_move_assignable_v<Engine>);
    static_assert(!std::is_copy_constructible_v<Session>);
    static_assert(!std::is_copy_assignable_v<Session>);
    static_assert(std::is_move_constructible_v<Session>);
    static_assert(std::is_move_assignable_v<Session>);
}

TEST(MoveOnly, MovedSessionKeepsWorking) {
    Session a(paper_example(), small_config());
    ASSERT_TRUE(a.push().ok());
    Session b(std::move(a));
    ASSERT_TRUE(b.assume(0, true).ok());
    const auto r = b.solve();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->verdict, sat::Result::kSat);
    EXPECT_TRUE(b.pop().ok());
}

// ---- scope edge cases ------------------------------------------------------

TEST(Session, PopOnEmptyStackReturnsError) {
    Session session(paper_example(), small_config());
    const Status s = session.pop();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    // The session is unharmed: normal use continues.
    ASSERT_TRUE(session.push().ok());
    EXPECT_EQ(session.depth(), 1u);
    EXPECT_TRUE(session.pop().ok());
    EXPECT_EQ(session.depth(), 0u);
    EXPECT_FALSE(session.pop().ok());
}

TEST(Session, OutOfRangeAssumeAndAddAreRejected) {
    Session session(paper_example(), small_config());
    EXPECT_EQ(session.assume(99, true).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(session.add(Polynomial::variable(99)).code(),
              StatusCode::kInvalidArgument);
    // Rejected constraints left no trace.
    const auto r = session.solve();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->verdict, sat::Result::kSat);
}

TEST(Session, SolveAfterUnsatAtScopeRecoversOnPop) {
    Session session(paper_example(), small_config());

    ASSERT_TRUE(session.push().ok());
    // The unique solution has x5 = 0; assuming x5 = 1 makes the scope
    // UNSAT.
    ASSERT_TRUE(session.assume(4, true).ok());
    const auto unsat = session.solve();
    ASSERT_TRUE(unsat.ok());
    EXPECT_EQ(unsat->verdict, sat::Result::kUnsat);
    EXPECT_FALSE(session.okay());

    // Even a directly contradictory pair of assumptions recovers.
    ASSERT_TRUE(session.pop().ok());
    EXPECT_TRUE(session.okay());
    ASSERT_TRUE(session.push().ok());
    ASSERT_TRUE(session.assume(0, true).ok());
    ASSERT_TRUE(session.assume(0, false).ok());
    const auto clash = session.solve();
    ASSERT_TRUE(clash.ok());
    EXPECT_EQ(clash->verdict, sat::Result::kUnsat);
    ASSERT_TRUE(session.pop().ok());

    const auto sat_again = session.solve();
    ASSERT_TRUE(sat_again.ok());
    EXPECT_EQ(sat_again->verdict, sat::Result::kSat);
    const std::vector<bool> expected = {true, true, true, true, false};
    EXPECT_EQ(sat_again->solution, expected);
}

/// Satellite regression for the SAT back-end redesign: the warm-solve
/// path now reaches the live solver through the SolverBackend interface
/// (assume/solve/failed). Failed assumptions must not poison later warm
/// solves, for the built-in native in-loop solver AND for every named
/// built-in backend routed through the interface -- mirroring the
/// solve_assuming guarantee the native path always had.
TEST(Session, FailedAssumptionsThroughBackendsDoNotPoisonWarmSolves) {
    for (const std::string backend : {"", "minisat", "cms", "lingeling"}) {
        EngineConfig cfg = small_config();
        cfg.sat_backend = backend;
        // Make the in-loop SAT step the only decision maker, so the warm
        // solver (native or backend) is what every solve exercises.
        cfg.use_xl = false;
        cfg.use_elimlin = false;
        Session session(paper_example(), cfg);

        // Warm-up solve: SAT, establishing the live solver.
        const auto first = session.solve();
        ASSERT_TRUE(first.ok()) << "'" << backend << "'";
        EXPECT_EQ(first->verdict, sat::Result::kSat) << "'" << backend << "'";

        // A scope whose assumption the base refutes (x5 = 1): the live
        // solver sees it as a failed assumption, not a new clause.
        ASSERT_TRUE(session.push().ok());
        ASSERT_TRUE(session.assume(4, true).ok());
        const auto unsat = session.solve();
        ASSERT_TRUE(unsat.ok()) << "'" << backend << "'";
        EXPECT_EQ(unsat->verdict, sat::Result::kUnsat)
            << "'" << backend << "'";
        ASSERT_TRUE(session.pop().ok());

        // The failed assumption must leave no trace: the same Session
        // keeps producing the unique model, warm, repeatedly.
        for (int round = 0; round < 2; ++round) {
            const auto again = session.solve();
            ASSERT_TRUE(again.ok()) << "'" << backend << "'";
            EXPECT_EQ(again->verdict, sat::Result::kSat)
                << "'" << backend << "' round " << round;
            const std::vector<bool> expected = {true, true, true, true,
                                                false};
            EXPECT_EQ(again->solution, expected) << "'" << backend << "'";
        }
        EXPECT_EQ(session.solve_count(), 4u);
    }
}

TEST(Session, PushPopRoundTripRestoresSystemExactly) {
    Session session(paper_example(), small_config());
    const auto before = session.solve();
    ASSERT_TRUE(before.ok());

    ASSERT_TRUE(session.push().ok());
    ASSERT_TRUE(session.assume(4, true).ok());  // forces UNSAT inside
    (void)session.solve();
    ASSERT_TRUE(session.pop().ok());

    // Re-solving after the round trip must reproduce the pre-scope
    // processed system bit for bit (the push/pop exactness contract).
    const auto after = session.solve();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->verdict, before->verdict);
    EXPECT_EQ(after->solution, before->solution);
    EXPECT_EQ(after->processed_anf, before->processed_anf);
    EXPECT_EQ(after->vars_fixed, before->vars_fixed);
    EXPECT_EQ(after->vars_replaced, before->vars_replaced);
}

TEST(Session, ScopedAddIsUndoneByPop) {
    Session session(paper_example(), small_config());
    const auto base = session.solve();
    ASSERT_TRUE(base.ok());
    EXPECT_EQ(base->verdict, sat::Result::kSat);

    ASSERT_TRUE(session.push().ok());
    // x5 + 1 = 0 contradicts the unique solution (x5 = 0).
    ASSERT_TRUE(session
                    .add(Polynomial::variable(4) +
                         Polynomial::constant(true))
                    .ok());
    const auto scoped = session.solve();
    ASSERT_TRUE(scoped.ok());
    EXPECT_EQ(scoped->verdict, sat::Result::kUnsat);
    ASSERT_TRUE(session.pop().ok());

    const auto restored = session.solve();
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored->verdict, sat::Result::kSat);
    EXPECT_EQ(restored->solution, base->solution);
}

TEST(Session, DepthZeroAddIsPermanent) {
    Session session(paper_example(), small_config());
    ASSERT_TRUE(session.add(Polynomial::variable(4) +
                            Polynomial::constant(true))
                    .ok());  // x5 = 1: kills the unique solution
    const auto r = session.solve();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->verdict, sat::Result::kUnsat);
}

// ---- cancellation ----------------------------------------------------------

TEST(Session, CancellationMidSolveLeavesSessionReusable) {
    // A system big enough that the loop runs at least one full step.
    SweepInstance inst = sweep_instance(7, 30, 45);
    Session session(inst.problem, small_config());

    runtime::CancellationSource source;
    source.request_cancel();  // already fired: the solve stops immediately
    session.set_cancellation_token(source.token());
    const auto cancelled = session.solve();
    ASSERT_TRUE(cancelled.ok());
    EXPECT_TRUE(cancelled->interrupted);

    // Detach the token; the session must solve normally afterwards.
    session.set_cancellation_token({});
    ASSERT_TRUE(session.push().ok());
    for (size_t v = 0; v < 6; ++v)
        ASSERT_TRUE(session.assume(v, inst.planted[v]).ok());
    const auto warm = session.solve();
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm->verdict, sat::Result::kSat);
    ASSERT_TRUE(session.pop().ok());

    // Same through the interrupt callback (counts as interruption too).
    std::atomic<int> polls{0};
    session.set_interrupt_callback([&polls] { return ++polls > 0; });
    const auto stopped = session.solve();
    ASSERT_TRUE(stopped.ok());
    EXPECT_TRUE(stopped->interrupted);
    session.set_interrupt_callback(nullptr);
    const auto fine = session.solve();
    ASSERT_TRUE(fine.ok());
    EXPECT_FALSE(fine->interrupted);
}

// ---- warm vs cold equivalence ---------------------------------------------

TEST(Session, WarmSweepMatchesColdEngineRuns) {
    SweepInstance inst = sweep_instance(11);
    const EngineConfig cfg = small_config();
    const size_t k = 3;  // sweep the first 3 variables: 8 candidates

    Session session(inst.problem, cfg);
    for (unsigned mask = 0; mask < (1u << k); ++mask) {
        // Cold reference: a fresh problem with the assumptions baked in
        // as unit equations, run through a fresh one-shot Engine.
        Problem cold_problem = inst.problem;
        for (size_t v = 0; v < k; ++v) {
            Polynomial unit = Polynomial::variable(v);
            if ((mask >> v) & 1) unit += Polynomial::constant(true);
            ASSERT_TRUE(cold_problem.add_polynomial(unit).ok());
        }
        Engine engine(cfg);
        const auto cold = engine.run(cold_problem);
        ASSERT_TRUE(cold.ok());

        ASSERT_TRUE(session.push().ok());
        for (size_t v = 0; v < k; ++v)
            ASSERT_TRUE(session.assume(v, (mask >> v) & 1).ok());
        const auto warm = session.solve();
        ASSERT_TRUE(warm.ok());
        ASSERT_TRUE(session.pop().ok());

        EXPECT_EQ(warm->verdict, cold->verdict) << "candidate " << mask;
        if (warm->verdict == sat::Result::kSat) {
            EXPECT_EQ(warm->solution, cold->solution)
                << "candidate " << mask
                << ": planted overdetermined systems have unique models";
        }
    }
}

TEST(Session, WarmResolveIsDeterministic) {
    SweepInstance inst = sweep_instance(13);
    const EngineConfig cfg = small_config();

    auto sweep = [&]() {
        std::vector<sat::Result> verdicts;
        Session session(inst.problem, cfg);
        for (unsigned mask = 0; mask < 8; ++mask) {
            EXPECT_TRUE(session.push().ok());
            for (size_t v = 0; v < 3; ++v)
                EXPECT_TRUE(session.assume(v, (mask >> v) & 1).ok());
            const auto r = session.solve();
            EXPECT_TRUE(r.ok());
            verdicts.push_back(r->verdict);
            EXPECT_TRUE(session.pop().ok());
        }
        return verdicts;
    };
    EXPECT_EQ(sweep(), sweep());
}

// ---- the sweep runtime -----------------------------------------------------

TEST(BatchEngineIncremental, SweepMatchesPerCandidateSessions) {
    SweepInstance inst = sweep_instance(17);
    EngineConfig cfg = small_config();

    std::vector<AssumptionSet> candidates;
    for (unsigned mask = 0; mask < 8; ++mask) {
        AssumptionSet set;
        for (size_t v = 0; v < 3; ++v)
            set.emplace_back(static_cast<anf::Var>(v), (mask >> v) & 1);
        candidates.push_back(std::move(set));
    }

    BatchEngine batch(cfg);
    const auto swept =
        batch.solve_all_incremental(inst.problem, candidates, 2);
    ASSERT_EQ(swept.size(), candidates.size());

    size_t n_sat = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
        ASSERT_TRUE(swept[i].ok()) << swept[i].status().to_string();
        Session session(inst.problem, cfg);
        ASSERT_TRUE(session.push().ok());
        for (const auto& [var, value] : candidates[i])
            ASSERT_TRUE(session.assume(var, value).ok());
        const auto solo = session.solve();
        ASSERT_TRUE(solo.ok());
        EXPECT_EQ(swept[i]->verdict, solo->verdict) << "candidate " << i;
        if (swept[i]->verdict == sat::Result::kSat) {
            ++n_sat;
            EXPECT_EQ(swept[i]->solution, solo->solution);
        }
    }
    EXPECT_GE(n_sat, 1u) << "the planted candidate must be SAT";
}

TEST(BatchEngineIncremental, BadCandidateFailsItsSlotOnly) {
    SweepInstance inst = sweep_instance(19);
    EngineConfig cfg = small_config();

    std::vector<AssumptionSet> candidates;
    candidates.push_back({{0, inst.planted[0]}});
    candidates.push_back({{9999, true}});  // out of range
    candidates.push_back({{1, inst.planted[1]}});

    BatchEngine batch(cfg);
    const auto swept =
        batch.solve_all_incremental(inst.problem, candidates, 1);
    ASSERT_EQ(swept.size(), 3u);
    EXPECT_TRUE(swept[0].ok());
    ASSERT_FALSE(swept[1].ok());
    EXPECT_EQ(swept[1].status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(swept[2].ok()) << "the sweep continues past a bad slot";
}

TEST(BatchEngineIncremental, CancellationSkipsRemainingCandidates) {
    SweepInstance inst = sweep_instance(23);
    EngineConfig cfg = small_config();

    std::vector<AssumptionSet> candidates(16, AssumptionSet{{0, true}});
    runtime::CancellationSource source;
    source.request_cancel();  // fire before the sweep even starts

    BatchEngine batch(cfg);
    batch.set_cancellation_token(source.token());
    const auto swept =
        batch.solve_all_incremental(inst.problem, candidates, 2);
    for (const auto& r : swept) {
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kInterrupted);
    }
}

}  // namespace
}  // namespace bosphorus
