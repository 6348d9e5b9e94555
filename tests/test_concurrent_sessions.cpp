// Concurrent Session lifecycle against the process-global shared state:
// many threads creating, solving and destroying Sessions at once, all
// interning into the same MonomialStore and hitting the same
// BackendRegistry. The interesting assertions here are (a) verdict
// correctness under contention and (b) the absence of data races -- this
// file is a primary payload of the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anf/monomial_store.h"
#include "bosphorus/bosphorus.h"

namespace bosphorus {
namespace {

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
    cfg.max_iterations = 8;
    cfg.time_budget_s = 10.0;
    return cfg;
}

TEST(ConcurrentSessions, CreateSolveDestroyUnderContention) {
    // Each thread runs its own Sessions (a Session is single-threaded),
    // but every construction materialises polynomials into the shared
    // MonomialStore and every warm SAT step consults the shared registry
    // -- that cross-thread surface is what this test hammers.
    constexpr int kThreads = 8;
    constexpr int kIterations = 6;
    const Problem base = paper_example();
    const EngineConfig cfg = small_config();

    std::atomic<int> wrong_verdicts{0};
    std::atomic<int> errors{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&base, &cfg, &wrong_verdicts, &errors, t] {
            for (int i = 0; i < kIterations; ++i) {
                Session session(base, cfg);  // create...
                session.push();
                // The unique model is 1,1,1,1,0: even iterations probe a
                // consistent polarity, odd ones a contradiction.
                const bool consistent = (i + t) % 2 == 0;
                session.assume(4, !consistent);
                const Result<Report> r = session.solve();  // ...solve...
                if (!r.ok()) {
                    errors.fetch_add(1);
                    return;
                }
                const sat::Result expect = consistent ? sat::Result::kSat
                                                      : sat::Result::kUnsat;
                if (r->verdict != expect) wrong_verdicts.fetch_add(1);
                session.pop();
            }  // ...destroy, every iteration
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(wrong_verdicts.load(), 0);
}

TEST(ConcurrentSessions, StoreStatsRaceWithInterning) {
    // Satellite: MonomialStore::stats() is safe to call while other
    // threads intern (Session construction + solving), and the counters
    // it reports only ever grow -- the store is append-only.
    const Problem base = paper_example();
    const EngineConfig cfg = small_config();
    std::atomic<bool> stop{false};
    std::atomic<int> shrank{0};

    std::thread reader([&stop, &shrank] {
        anf::MonomialStore::Stats last{};
        while (!stop.load(std::memory_order_acquire)) {
            const auto s = anf::MonomialStore::global().stats();
            if (s.entries < last.entries ||
                s.arena_bytes < last.arena_bytes ||
                s.mul_memo_hits < last.mul_memo_hits ||
                s.mul_memo_misses < last.mul_memo_misses) {
                shrank.fetch_add(1);
            }
            last = s;
            std::this_thread::yield();
        }
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&base, &cfg] {
            for (int i = 0; i < 4; ++i) {
                Session session(base, cfg);
                session.push();
                session.assume(0, true);
                (void)session.solve();
                session.pop();
            }
        });
    }
    for (auto& th : writers) th.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(shrank.load(), 0);
    const auto s = anf::MonomialStore::global().stats();
    EXPECT_GT(s.entries, 0u);
    EXPECT_GT(s.arena_bytes, 0u);
    EXPECT_GE(s.entry_bytes, s.entries * sizeof(void*));
}

TEST(ConcurrentSessions, RegistrySnapshotUnderRegistration) {
    // Satellite: BackendRegistry::list() returns an atomic snapshot and
    // create()'s unknown-name error reports the names from the SAME
    // critical section as the failed lookup -- exercised here by racing
    // registrations against listers and erroring creators.
    auto& registry = sat::BackendRegistry::global();
    constexpr int kNew = 12;
    const size_t before = registry.list().size();

    std::atomic<bool> go{false};
    std::thread registrar([&registry, &go] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int i = 0; i < kNew; ++i) {
            sat::BackendInfo info;
            info.name = "race-backend-" + std::to_string(i);
            info.description = "registered mid-listing";
            const Status st = registry.register_backend(
                info, [](const std::string&)
                          -> Result<std::unique_ptr<sat::SolverBackend>> {
                    return Status::invalid_argument("unconstructible");
                });
            EXPECT_TRUE(st.ok()) << st.to_string();
        }
    });

    std::vector<std::thread> observers;
    std::atomic<int> inconsistencies{0};
    for (int t = 0; t < 3; ++t) {
        observers.emplace_back([&registry, &go, &inconsistencies, before] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            size_t last = before;
            for (int i = 0; i < 200; ++i) {
                const auto snapshot = registry.list();
                // Snapshots are monotone (registration-ordered, append-
                // only) and never lose an entry a previous snapshot had.
                if (snapshot.size() < last) inconsistencies.fetch_add(1);
                last = snapshot.size();
                // An unknown-name create fails cleanly mid-registration.
                const auto r = registry.create(
                    sat::SolverSpec("definitely-not-registered"));
                if (r.ok()) inconsistencies.fetch_add(1);
                if (r.status().code() != StatusCode::kInvalidArgument)
                    inconsistencies.fetch_add(1);
            }
        });
    }

    go.store(true, std::memory_order_release);
    registrar.join();
    for (auto& th : observers) th.join();
    EXPECT_EQ(inconsistencies.load(), 0);
    EXPECT_EQ(registry.list().size(), before + kNew);
    EXPECT_TRUE(registry.contains("race-backend-0"));
}

TEST(ConcurrentSessions, SessionsRaceWithServiceJobs) {
    // Direct Sessions and a SolveService share the same globals; using
    // both at once from different threads must stay correct.
    const Problem base = paper_example();
    const EngineConfig cfg = small_config();
    ServiceConfig scfg;
    scfg.engine = cfg;
    scfg.n_workers = 2;
    SolveService svc(scfg);

    std::atomic<int> failures{0};
    std::thread direct([&base, &cfg, &failures] {
        for (int i = 0; i < 4; ++i) {
            Session session(base, cfg);
            const Result<Report> r = session.solve();
            if (!r.ok() || r->verdict != sat::Result::kSat)
                failures.fetch_add(1);
        }
    });
    std::thread via_service([&svc, &base, &failures] {
        for (int i = 0; i < 4; ++i) {
            JobRequest req;
            req.client = "svc";
            req.problem = base;
            const Result<JobId> id = svc.submit(std::move(req));
            if (!id.ok()) {
                failures.fetch_add(1);
                continue;
            }
            const auto out = svc.wait(*id);
            if (!out.ok() || out->report.verdict != sat::Result::kSat)
                failures.fetch_add(1);
        }
    });
    direct.join();
    via_service.join();
    EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace bosphorus
