// The deterministic fault-injection framework and the resilience layer
// built on it: FaultInjector plan parsing / determinism / caps, the
// HealthTracker circuit breaker, ResilientBackend retry / fallback /
// garbage-rejection behaviour under injected faults, and the service's
// queue-delay site. Every armed fault must end in a correct verdict or a
// structured error -- never a crash, a hang past the deadline, or a wrong
// answer. All randomness derives from BOSPHORUS_TEST_SEED.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bosphorus/bosphorus.h"
#include "bosphorus/sat_backend.h"
#include "bosphorus/service.h"
#include "test_util.h"
#include "util/fault.h"

namespace bosphorus {
namespace {

using fault::FaultInjector;
using fault::ScopedFaultPlan;
using fault::Site;
using sat::BackendRegistry;
using sat::HealthTracker;
using sat::LBool;
using sat::Lit;
using sat::mk_lit;
using sat::SolverSpec;

std::string seeded(const std::string& plan) {
    return plan + ",seed=" + std::to_string(testutil::test_seed());
}

/// Deltas of the process-global resilience counters across a test body.
struct CounterDelta {
    uint64_t attempts, retries, fallbacks, garbage, exhausted;
    static CounterDelta now() {
        const auto& c = sat::resilience_counters();
        return {c.attempts.load(), c.retries.load(), c.fallbacks.load(),
                c.garbage_rejected.load(), c.exhausted.load()};
    }
};

/// A backend from the registry, leaving the circuit-breaker state as the
/// test arranged it.
std::unique_ptr<sat::SolverBackend> make_backend_keeping_health(
    const std::string& spec) {
    auto r = BackendRegistry::global().create(SolverSpec{spec});
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    return r.ok() ? std::move(*r) : nullptr;
}

/// A fresh backend from the registry, with chain health forgotten so one
/// test's injected failures cannot trip another test's circuit breaker.
std::unique_ptr<sat::SolverBackend> make_backend(const std::string& spec) {
    BackendRegistry::global().health().reset();
    return make_backend_keeping_health(spec);
}

/// (x0 | x1) & (~x0 | x2) & (~x1 | ~x2): satisfiable, 3 variables.
void load_sat_instance(sat::SolverBackend& b) {
    b.ensure_vars(3);
    b.add_clause({mk_lit(0, false), mk_lit(1, false)});
    b.add_clause({mk_lit(0, true), mk_lit(2, false)});
    b.add_clause({mk_lit(1, true), mk_lit(2, true)});
}

/// x0 & ~x0 via two units: trivially unsatisfiable.
void load_unsat_instance(sat::SolverBackend& b) {
    b.ensure_vars(1);
    b.add_clause({mk_lit(0, false)});
    b.add_clause({mk_lit(0, true)});
}

void expect_sat_model(sat::SolverBackend& b) {
    const bool x0 = b.value(0) == LBool::kTrue;
    const bool x1 = b.value(1) == LBool::kTrue;
    const bool x2 = b.value(2) == LBool::kTrue;
    EXPECT_TRUE(x0 || x1);
    EXPECT_TRUE(!x0 || x2);
    EXPECT_TRUE(!x1 || !x2);
}

// ---- FaultInjector ---------------------------------------------------------

TEST(FaultInjector, ArmDisarmRoundTrip) {
    auto& inj = FaultInjector::global();
    ASSERT_TRUE(inj.arm("backend-crash=1,seed=3").ok());
    EXPECT_TRUE(inj.armed());
    EXPECT_EQ(inj.plan(), "backend-crash=1,seed=3");
    ASSERT_TRUE(inj.arm("").ok());
    EXPECT_FALSE(inj.armed());
    EXPECT_EQ(inj.plan(), "");
    EXPECT_FALSE(inj.should_fire(Site::kBackendCrash));
}

TEST(FaultInjector, MalformedPlanKeepsThePreviousOne) {
    ScopedFaultPlan plan("io-enospc=1,seed=4");
    ASSERT_TRUE(plan.status().ok());
    auto& inj = FaultInjector::global();
    for (const char* bad :
         {"no-such-site=1", "backend-crash=2", "backend-crash",
          "backend-crash=0.5@x", "seed=notanumber", "backend-crash=-0.5"}) {
        const Status s = inj.arm(bad);
        EXPECT_FALSE(s.ok()) << bad;
        EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
        EXPECT_EQ(inj.plan(), "io-enospc=1,seed=4") << bad;
        EXPECT_TRUE(inj.armed()) << bad;
    }
}

TEST(FaultInjector, ProbabilityOneAlwaysFiresAndUnlistedSitesNever) {
    ScopedFaultPlan plan("io-enospc=1,seed=5");
    ASSERT_TRUE(plan.status().ok());
    auto& inj = FaultInjector::global();
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(inj.should_fire(Site::kIoEnospc));
        EXPECT_FALSE(inj.should_fire(Site::kIoShortWrite));
    }
}

TEST(FaultInjector, CapBoundsTheNumberOfFirings) {
    ScopedFaultPlan plan("backend-crash=1@3,seed=9");
    ASSERT_TRUE(plan.status().ok());
    auto& inj = FaultInjector::global();
    int fired = 0;
    for (int i = 0; i < 20; ++i)
        if (inj.should_fire(Site::kBackendCrash)) ++fired;
    EXPECT_EQ(fired, 3);

    bool found = false;
    for (const auto& [name, st] : inj.stats()) {
        if (name != "backend-crash") continue;
        found = true;
        EXPECT_EQ(st.evaluated, 20u);
        EXPECT_EQ(st.fired, 3u);
    }
    EXPECT_TRUE(found);
    EXPECT_EQ(inj.total_fired(), 3u);
}

TEST(FaultInjector, OutcomeSequenceIsAPureFunctionOfThePlan) {
    const std::string plan = seeded("queue-delay=0.5");
    std::vector<bool> first, second;
    {
        ScopedFaultPlan scoped(plan);
        ASSERT_TRUE(scoped.status().ok());
        for (int i = 0; i < 64; ++i)
            first.push_back(
                FaultInjector::global().should_fire(Site::kQueueDelay));
    }
    {
        ScopedFaultPlan scoped(plan);
        ASSERT_TRUE(scoped.status().ok());
        for (int i = 0; i < 64; ++i)
            second.push_back(
                FaultInjector::global().should_fire(Site::kQueueDelay));
    }
    EXPECT_EQ(first, second);
}

// ---- HealthTracker ---------------------------------------------------------

TEST(HealthTracker, OpensAfterConsecutiveFailures) {
    HealthTracker h;
    h.set_config({/*failure_threshold=*/3, /*open_cooldown_s=*/60.0});
    EXPECT_TRUE(h.allow("b"));
    h.record_failure("b");
    h.record_failure("b");
    EXPECT_TRUE(h.allow("b")) << "below threshold: still closed";
    h.record_failure("b");
    EXPECT_FALSE(h.allow("b")) << "third consecutive failure opens";

    const auto snaps = h.snapshot();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].backend, "b");
    EXPECT_EQ(snaps[0].state, HealthTracker::CircuitState::kOpen);
    EXPECT_EQ(snaps[0].failures, 3u);
    EXPECT_EQ(snaps[0].opens, 1u);
    EXPECT_EQ(h.total_opens(), 1u);
}

TEST(HealthTracker, SuccessResetsTheConsecutiveCount) {
    HealthTracker h;
    h.set_config({3, 60.0});
    h.record_failure("b");
    h.record_failure("b");
    h.record_success("b");
    h.record_failure("b");
    h.record_failure("b");
    EXPECT_TRUE(h.allow("b")) << "the success broke the streak";
}

TEST(HealthTracker, HalfOpenProbeRecoversOrReopens) {
    HealthTracker h;
    h.set_config({1, /*open_cooldown_s=*/0.02});
    h.record_failure("b");
    EXPECT_FALSE(h.allow("b"));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));

    // Cooldown over: exactly one caller becomes the probe.
    EXPECT_TRUE(h.allow("b"));
    EXPECT_FALSE(h.allow("b")) << "second caller must wait out the probe";

    // Failed probe: straight back to open, without a threshold's worth
    // of failures.
    h.record_failure("b");
    EXPECT_FALSE(h.allow("b"));
    EXPECT_EQ(h.total_opens(), 2u);

    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    EXPECT_TRUE(h.allow("b"));
    h.record_success("b");
    EXPECT_TRUE(h.allow("b")) << "successful probe closes the circuit";
    const auto snaps = h.snapshot();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].state, HealthTracker::CircuitState::kClosed);
}

// ---- ResilientBackend ------------------------------------------------------

TEST(ResilientBackend, SpecParsing) {
    auto& reg = BackendRegistry::global();
    EXPECT_TRUE(reg.contains("resilient"));
    EXPECT_FALSE(reg.create(SolverSpec{"resilient"}).ok());
    EXPECT_FALSE(reg.create(SolverSpec{"resilient:"}).ok());
    EXPECT_FALSE(reg.create(SolverSpec{"resilient:retries=2"}).ok())
        << "options alone name no backend";
    EXPECT_FALSE(reg.create(SolverSpec{"resilient:resilient:minisat"}).ok())
        << "chains do not nest";
    EXPECT_FALSE(
        reg.create(SolverSpec{"resilient:minisat,retries=banana"}).ok());
    EXPECT_TRUE(
        reg.create(SolverSpec{"resilient:minisat,cms,retries=2"}).ok());
    // A typo'd primary with a healthy fallback is survivable by design.
    EXPECT_TRUE(reg.create(SolverSpec{"resilient:no-such,minisat"}).ok());
    // An unknown primary alone still constructs: the implicit in-process
    // floor is appended as the fallback.
    EXPECT_TRUE(reg.create(SolverSpec{"resilient:no-such"}).ok());
    // Nothing usable anywhere (the lone in-process entry rejects its
    // argument, so no floor is appended): fail fast at construction.
    EXPECT_FALSE(reg.create(SolverSpec{"resilient:minisat:x"}).ok());
}

TEST(ResilientBackend, VerdictsMatchWithoutFaults) {
    auto b = make_backend("resilient:minisat");
    ASSERT_NE(b, nullptr);
    load_sat_instance(*b);
    EXPECT_EQ(b->solve(), sat::Result::kSat);
    expect_sat_model(*b);

    auto u = make_backend("resilient:minisat");
    ASSERT_NE(u, nullptr);
    load_unsat_instance(*u);
    EXPECT_EQ(u->solve(), sat::Result::kUnsat);
    EXPECT_FALSE(u->okay());
}

TEST(ResilientBackend, RetriesThroughInjectedCrashes) {
    ScopedFaultPlan plan(seeded("backend-crash=1@2"));
    ASSERT_TRUE(plan.status().ok());
    const CounterDelta before = CounterDelta::now();

    auto b = make_backend("resilient:minisat,backoff=0.001");
    ASSERT_NE(b, nullptr);
    load_sat_instance(*b);
    EXPECT_EQ(b->solve(), sat::Result::kSat)
        << "two crashed attempts, then the third succeeds";
    expect_sat_model(*b);

    const CounterDelta after = CounterDelta::now();
    EXPECT_GE(after.retries - before.retries, 2u);
    EXPECT_GE(after.attempts - before.attempts, 3u);
}

TEST(ResilientBackend, FallsBackDownTheChain) {
    // retries=0: one attempt per entry. The single crash consumes the
    // primary; the fallback answers.
    ScopedFaultPlan plan(seeded("backend-crash=1@1"));
    ASSERT_TRUE(plan.status().ok());
    const CounterDelta before = CounterDelta::now();

    auto b = make_backend("resilient:minisat,cms,retries=0,backoff=0.001");
    ASSERT_NE(b, nullptr);
    load_sat_instance(*b);
    EXPECT_EQ(b->solve(), sat::Result::kSat);
    expect_sat_model(*b);

    const CounterDelta after = CounterDelta::now();
    EXPECT_GE(after.fallbacks - before.fallbacks, 1u);
}

TEST(ResilientBackend, GarbageModelIsRejectedAndRetried) {
    ScopedFaultPlan plan(seeded("backend-garbage=1@1"));
    ASSERT_TRUE(plan.status().ok());
    const CounterDelta before = CounterDelta::now();

    auto b = make_backend("resilient:minisat,backoff=0.001");
    ASSERT_NE(b, nullptr);
    // x0 & (~x0 | x1): the unique model is {x0=1, x1=1}, and its
    // complement violates the unit clause -- so the injected corruption
    // (which flips every value) cannot slip past verification.
    b->ensure_vars(2);
    b->add_clause({mk_lit(0, false)});
    b->add_clause({mk_lit(0, true), mk_lit(1, false)});
    EXPECT_EQ(b->solve(), sat::Result::kSat);
    EXPECT_EQ(b->value(0), LBool::kTrue);  // the corruption never escaped
    EXPECT_EQ(b->value(1), LBool::kTrue);

    const CounterDelta after = CounterDelta::now();
    EXPECT_GE(after.garbage - before.garbage, 1u);
}

TEST(ResilientBackend, GarbageCannotTouchAnUnsatVerdict) {
    ScopedFaultPlan plan(seeded("backend-garbage=1"));
    ASSERT_TRUE(plan.status().ok());
    auto b = make_backend("resilient:minisat");
    ASSERT_NE(b, nullptr);
    load_unsat_instance(*b);
    EXPECT_EQ(b->solve(), sat::Result::kUnsat);
}

TEST(ResilientBackend, ExhaustedChainDegradesToUnknown) {
    // Every in-process attempt crashes, uncapped: the chain runs dry and
    // the decorator reports kUnknown -- a structured non-verdict, never a
    // crash or a lie.
    ScopedFaultPlan plan(seeded("backend-crash=1"));
    ASSERT_TRUE(plan.status().ok());
    const CounterDelta before = CounterDelta::now();

    auto b = make_backend("resilient:minisat,retries=1,backoff=0.001");
    ASSERT_NE(b, nullptr);
    load_sat_instance(*b);
    EXPECT_EQ(b->solve(), sat::Result::kUnknown);

    const CounterDelta after = CounterDelta::now();
    EXPECT_GE(after.exhausted - before.exhausted, 1u);
    // The injected failures must be visible to the circuit breaker.
    EXPECT_GE(BackendRegistry::global().health().snapshot().size(), 1u);
    BackendRegistry::global().health().reset();
}

TEST(ResilientBackend, OpenCircuitSkipsThePrimary) {
    auto& health = BackendRegistry::global().health();
    health.reset();
    health.set_config({3, /*open_cooldown_s=*/60.0});
    for (int i = 0; i < 3; ++i) health.record_failure("minisat");
    const CounterDelta before = CounterDelta::now();

    auto b = make_backend_keeping_health("resilient:minisat,cms");
    ASSERT_NE(b, nullptr);
    load_sat_instance(*b);
    EXPECT_EQ(b->solve(), sat::Result::kSat)
        << "the fallback answers while the primary's circuit is open";

    const CounterDelta after = CounterDelta::now();
    EXPECT_GE(after.fallbacks - before.fallbacks, 1u);
    health.reset();
    health.set_config({});
}

TEST(ResilientBackend, LastChainEntryIsExemptFromTheCircuit) {
    auto& health = BackendRegistry::global().health();
    health.reset();
    health.set_config({3, 60.0});
    for (int i = 0; i < 3; ++i) health.record_failure("minisat");

    auto b = make_backend_keeping_health("resilient:minisat");
    ASSERT_NE(b, nullptr);
    load_sat_instance(*b);
    EXPECT_EQ(b->solve(), sat::Result::kSat)
        << "degradation always has a landing spot";
    health.reset();
    health.set_config({});
}

// ---- service: queue-delay + fault plan plumbing ----------------------------

TEST(ServiceFaults, QueueDelayedJobStillCompletesAndIsCounted) {
    struct Disarm {
        ~Disarm() { (void)FaultInjector::global().arm(""); }
    } disarm;

    ServiceConfig cfg;
    cfg.n_workers = 1;
    cfg.fault_plan = seeded("queue-delay=1");
    SolveService svc(cfg);

    auto p = Problem::from_anf_text("x1*x2 + x3\n");
    ASSERT_TRUE(p.ok());
    JobRequest req;
    req.client = "chaos";
    req.problem = *p;
    const Result<JobId> id = svc.submit(std::move(req));
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    const Result<JobOutcome> out = svc.wait(*id);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->state, JobState::kDone);

    const FaultInjector& inject = FaultInjector::global();
    EXPECT_EQ(inject.plan(), cfg.fault_plan);
    EXPECT_GE(inject.total_fired(), 1u);
    svc.shutdown();
}

}  // namespace
}  // namespace bosphorus
