// service-mix: an in-process SolveService driven as a closed loop by two
// client threads, each keeping kInFlight jobs in flight.
//  - "oneshot" submits one-shot CNF jobs drawn from kSuites SAT-2017
//    substitute suites: CNF -> ANF conversion and fresh state per job.
//  - "sweeper" submits submit_assumptions() jobs round-robin against
//    kSweepInstances warm named SR(2,2,2,4) sessions: the key sweeps of
//    sr-sweep, through the queue.
// It is the only workload that goes through admission, the queue and
// dispatch, and the CNF input path.
//
// The timed phase runs in rounds of kRoundS: the clients stop submitting,
// the service drains, and the reference clock samples the host while the
// service is idle (run beside the workers it would read their load as a
// slower host, and hide a service that burns more CPU).
//
// The service builds its techniques itself, so the traced run reads what
// the service reports (JobOutcome::queued_s / run_s, Report tallies) and
// the process-global counter deltas. An untraced reference runs first,
// time-boxed, in a forked copy of the process; the traced run then
// replays the same per-client job sequence on a fresh service, and the
// two must agree job for job.
#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <thread>

#include "cnfgen/generators.h"
#include "reference.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

using namespace bosphorus;

namespace {

constexpr double kLimitS = 20.0;  // job deadline
constexpr size_t kInFlight = 2;   // per client
constexpr unsigned kClients = 2;
constexpr size_t kSuites = 4;     // substitute suites the one-shot jobs draw from
constexpr double kRoundS = 2.5;   // timed-phase round
constexpr int kReferenceSamples = 10;  // reference samples after each round

/// The generator knows the status of the structured families (pigeonhole
/// is UNSAT, the rest say so in their name); the random ones are solved
/// by a plain CDCL back end.
sat::Result reference_verdict(const cnfgen::SuiteInstance& s) {
    const auto ends_with = [&](const std::string& tail) {
        return s.name.size() >= tail.size() &&
               s.name.compare(s.name.size() - tail.size(), tail.size(), tail) == 0;
    };
    if (s.family == "pigeonhole" || ends_with("-unsat")) return sat::Result::kUnsat;
    if (ends_with("-sat")) return sat::Result::kSat;
    auto ref = sat::solve_cnf_with(s.cnf, "minisat", kLimitS);
    return ref.ok() ? ref->result : sat::Result::kUnknown;
}

struct Inputs {
    std::vector<cnfgen::SuiteInstance> suite;
    std::vector<sat::Result> expected;  // reference verdicts
    std::vector<size_t> draws;          // suite index of one-shot job k
    std::vector<KeySweep> sweeps;
    // What a user builds from the above before the first job: part of
    // the timed set-up.
    std::vector<Problem> problems;
    std::vector<Problem> bases;

    explicit Inputs(uint64_t seed) : sweeps(key_sweeps(seed)) {
        // Several suites, so that a run does not hang on how hard one
        // seed's random instances came out.
        for (size_t j = 0; j < kSuites; ++j)
            for (auto& s : cnfgen::sat2017_substitute_suite(1, seed * kSuites + j))
                suite.push_back(std::move(s));
        for (const auto& s : suite) expected.push_back(reference_verdict(s));
        Rng rng(seed * 1000003ULL + 23);
        for (size_t k = 0; k < 4096; ++k) draws.push_back(rng.below(suite.size()));
    }

    void build_problems() {
        problems.clear();
        for (const auto& s : suite) problems.push_back(Problem::from_cnf(s.cnf));
        bases.clear();
        for (const KeySweep& sw : sweeps)
            bases.push_back(Problem::from_anf(sw.inst.polys, sw.inst.num_vars));
    }
};

std::string session_name(size_t j) { return "sr-" + std::to_string(j); }

/// What a client saw of one job.
struct JobRecord {
    bool rejected = false;
    bool ok = false;  // wait() returned an outcome
    double latency_s = 0;
    JobOutcome outcome;
};

using Records = std::array<std::vector<JobRecord>, kClients>;

unsigned worker_count() {
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    return std::clamp(cores > kClients ? cores - kClients : 1u, 1u, 2u);
}

std::unique_ptr<SolveService> start_service(const Inputs& in) {
    ServiceConfig cfg;
    cfg.engine = engine_config(kLimitS);
    cfg.n_workers = worker_count();
    cfg.default_timeout_s = kLimitS;
    // Clients pick every result up at once; the default retention (1024
    // finished jobs, each with its processed ANF/CNF) would make peak RSS
    // grow with the number of jobs a run completes.
    cfg.max_retained_jobs = 64;
    auto svc = std::make_unique<SolveService>(cfg);
    for (size_t j = 0; j < in.bases.size(); ++j) {
        const Status st = svc->open_session("sweeper", session_name(j), in.bases[j]);
        if (!st.ok())
            std::fprintf(stderr, "perfbench: open_session: %s\n",
                         st.to_string().c_str());
    }
    return svc;
}

/// One closed-loop client: submits jobs first, first + 1, ... keeping
/// kInFlight in flight until `more(k)` says job k is not to be submitted,
/// then drains; returns the records of those jobs in order. Completion is
/// polled every 2 ms, so a job that finishes behind an older one is still
/// timed to its own end.
std::vector<JobRecord> client(SolveService& svc, const Inputs& in, bool sweeper,
                              size_t first, const std::function<bool(size_t)>& more) {
    struct Pending {
        JobId id;
        Timer timer;
        size_t k;
    };
    std::vector<JobRecord> records;
    std::deque<Pending> pending;
    size_t next = first;
    for (;;) {
        while (pending.size() < kInFlight && more(next)) {
            const Timer timer;
            Result<JobId> id =
                sweeper ? svc.submit_assumptions(
                              "sweeper", session_name(next % kSweepInstances),
                              in.sweeps[next % kSweepInstances].assumptions(
                                  next / kSweepInstances),
                              kLimitS)
                        : svc.submit({"oneshot", in.problems[in.draws[next % in.draws.size()]],
                                      kLimitS, ""});
            records.emplace_back();
            if (id.ok()) {
                pending.push_back({*id, timer, next});
            } else {
                records.back().rejected = true;
                records.back().latency_s = timer.seconds();
            }
            ++next;
        }
        if (pending.empty()) return records;
        for (auto it = pending.begin(); it != pending.end();) {
            Result<JobOutcome> w =
                svc.wait(it->id, it == pending.begin() ? 0.002 : 0.0);
            if (!w.ok() && w.status().code() == StatusCode::kTimeout) {
                ++it;
                continue;
            }
            JobRecord& r = records[it->k - first];
            r.latency_s = it->timer.seconds();
            r.ok = w.ok();
            if (w.ok()) r.outcome = std::move(*w);
            it = pending.erase(it);
        }
    }
}

/// Judge job k of a client. Returns true iff it is a correct verdict.
bool judge(const Inputs& in, bool sweeper, size_t k, const JobRecord& r,
           RunOutput* out) {
    if (!r.ok || r.outcome.state != JobState::kDone) return false;
    const Fingerprint fp = fingerprint(r.outcome.report);
    if (sweeper)
        return in.sweeps[k % kSweepInstances].judge(k / kSweepInstances, fp, out);
    const size_t idx = in.draws[k % in.draws.size()];
    const std::string where =
        "job " + std::to_string(k) + " (" + in.suite[idx].name + ")";
    const sat::Result expected = in.expected[idx];
    if (fp.verdict == sat::Result::kUnknown) return false;
    if (expected != sat::Result::kUnknown && fp.verdict != expected) {
        out->wrong(where + ": verdict contradicts the reference solver");
        return false;
    }
    if (fp.verdict == sat::Result::kSat) {
        const sat::Cnf& cnf = in.suite[idx].cnf;
        std::vector<sat::LBool> model(cnf.num_vars, sat::LBool::kFalse);
        for (size_t v = 0; v < cnf.num_vars && v < fp.solution.size(); ++v)
            if (fp.solution[v]) model[v] = sat::LBool::kTrue;
        if (!sat::model_satisfies(cnf, model)) {
            out->wrong(where + ": model fails the CNF");
            return false;
        }
    }
    return true;
}

/// Run both clients against `svc`, client c continuing from job
/// records[c].size() and submitting job k while `more(c, k)`; appends
/// their records and returns the wall time.
double drive(SolveService& svc, const Inputs& in,
             const std::function<bool(unsigned, size_t)>& more, Records* records) {
    Records fresh;
    const Timer phase;
    {
        std::vector<std::jthread> threads;
        for (unsigned c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                fresh[c] = client(svc, in, c == 1, (*records)[c].size(),
                                  [&, c](size_t k) { return more(c, k); });
            });
    }
    const double wall_s = phase.seconds();
    for (unsigned c = 0; c < kClients; ++c)
        for (JobRecord& r : fresh[c]) (*records)[c].push_back(std::move(r));
    return wall_s;
}

void timed_phase(SolveService& svc, const Inputs& in, double seconds,
                 const SetupTime& setup, ReferenceClock& ref, RunOutput* out) {
    Records records;
    double wall_s = 0;  // the rounds, without the reference samples
    while (wall_s < seconds) {
        const Timer round;
        wall_s += drive(
            svc, in, [&](unsigned, size_t) { return round.seconds() < kRoundS; },
            &records);
        for (int i = 0; i < kReferenceSamples; ++i) ref.sample();
    }
    std::vector<QuerySample> samples;
    for (unsigned c = 0; c < kClients; ++c)
        for (size_t k = 0; k < records[c].size(); ++k)
            samples.push_back({records[c][k].latency_s,
                               judge(in, c == 1, k, records[c][k], out), kLimitS});
    add_end_to_end(samples, wall_s, setup, ref, out);
}

void traced_phase(const Inputs& in, double seconds, RunOutput* out) {
    // The untraced reference, time-boxed to half the run, in a forked
    // copy: the jobs of client 0, then those of client 1.
    std::vector<PlainQuery> plain;
    const bool copied = run_untraced_copy(
        [&] {
            auto svc = start_service(in);
            const Timer clock;
            Records records;
            drive(
                *svc, in,
                [&](unsigned, size_t) { return clock.seconds() < seconds / 2; },
                &records);
            std::vector<PlainQuery> jobs;
            for (unsigned c = 0; c < kClients; ++c)
                for (const JobRecord& r : records[c])
                    jobs.push_back({c, r.ok, r.latency_s, fingerprint(r.outcome.report)});
            return jobs;
        },
        &plain);
    if (!copied) {
        out->wrong("the untraced reference run failed");
        return;
    }
    std::vector<size_t> counts(kClients);
    for (const PlainQuery& q : plain) ++counts[q.group % kClients];

    LayerTotals t;
    auto svc = start_service(in);
    const GlobalCounters before = GlobalCounters::now();
    Records traced;
    drive(*svc, in, [&](unsigned c, size_t k) { return k < counts[c]; }, &traced);
    t.solver = t.store = GlobalCounters::now() - before;

    size_t q = 0;
    for (unsigned c = 0; c < kClients; ++c) {
        for (size_t k = 0; k < traced[c].size(); ++k, ++q) {
            const JobRecord& r = traced[c][k];
            ++out->attempted;
            ++t.queries;
            t.rejected += r.rejected;
            if (!judge(in, c == 1, k, r, out)) ++out->failed;
            if (r.rejected || !r.ok) continue;
            const JobOutcome& o = r.outcome;
            t.expired += o.state == JobState::kExpired;
            t.queue_wait_s.push_back(o.queued_s);
            t.run_s.push_back(o.run_s);
            t.accounted_s += o.queued_s + o.run_s;
            t.traced_wall_s += r.latency_s;
            t.untraced_wall_s += plain[q].wall_s;
            t.iterations += o.report.iterations;
            t.decided_in_loop += o.report.verdict != sat::Result::kUnknown;
            for (const TechniqueTally& tt : o.report.techniques)
                t.reported.push_back({tt.name, {tt.steps, tt.facts}});
            if (plain[q].ok) check_same(plain[q].fp, fingerprint(o.report), k, out);
            else out->wrong("job " + std::to_string(k) + ": no untraced outcome");
        }
    }
    t.store_queries = t.queries;
    add_per_layer(t, out);
}

}  // namespace

void run_service(const Args& args, RunOutput* out) {
    const unsigned workers = worker_count();
    char load[120];
    std::snprintf(load, sizeof(load),
                  "load: %u client threads x %zu jobs in flight, %u service "
                  "workers, %u cores",
                  kClients, kInFlight, workers,
                  std::thread::hardware_concurrency());
    out->note(load);
    ReferenceClock ref;
    // Making the inputs and their reference verdicts is not set-up a user
    // pays: setup_s times building the problems, starting the service and
    // opening its sessions.
    Inputs in(args.seed);
    std::unique_ptr<SolveService> svc;
    const SetupTime setup = time_setup(ref, [&] {
        svc.reset();
        in.build_problems();
        svc = start_service(in);
    });
    if (args.trace) {
        svc.reset();
        traced_phase(in, args.seconds, out);
    } else {
        timed_phase(*svc, in, args.seconds, setup, ref, out);
    }
}

}  // namespace perfbench
