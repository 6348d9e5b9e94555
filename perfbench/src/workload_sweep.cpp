// sr-sweep: one warm Session per SR(2,2,2,4) base, kSweepInstances of
// them swept round-robin; every candidate is push, assume kSweepBits key
// bits, solve, pop. Exactly one candidate per base (its planted key) is
// satisfiable.
//
// The traced run first sweeps untraced Sessions in a forked copy of the
// process (time-boxed to half the run), then the same candidates on
// traced Sessions, and checks the two agree call for call. Both start
// from the same process state.
#include "reference.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

using namespace bosphorus;

namespace {

constexpr double kLimitS = 20.0;  // per call

struct Call {
    bool ok = false;
    Fingerprint fp;
    double wall_s = 0;
    double push_pop_s = 0;
    double loop_s = 0;  // Report::seconds
};

Call run_candidate(Session& session, const AssumptionSet& assumptions) {
    Call c;
    const Timer timer;
    bool ok = session.push().ok();
    for (const auto& [var, value] : assumptions)
        ok = ok && session.assume(var, value).ok();
    c.push_pop_s = timer.seconds();
    Result<Report> r = session.solve();
    const Timer pop_timer;
    ok = ok && session.pop().ok();
    c.push_pop_s += pop_timer.seconds();
    c.wall_s = timer.seconds();
    if (!ok || !r.ok()) return c;
    c.ok = true;
    c.fp = fingerprint(*r);
    c.loop_s = r->seconds;
    return c;
}

std::vector<Session> open_sessions(const std::vector<Problem>& bases,
                                   const EngineConfig& cfg) {
    std::vector<Session> sessions;
    for (const Problem& base : bases) sessions.emplace_back(base, cfg);
    return sessions;
}

/// Query q of a run: (sweep, candidate within it).
std::pair<size_t, size_t> slot(size_t q) {
    return {q % kSweepInstances, q / kSweepInstances};
}

/// Whether a run that has made q queries goes on: while `in_time`, but
/// always past every sweep's planted candidate and never past the end of
/// a sweep.
bool more_queries(size_t q, bool in_time, const KeySweep& any) {
    return slot(q).second < any.order.size() &&
           (in_time || q < kPlantedWithin * kSweepInstances);
}

void timed_phase(const std::vector<KeySweep>& sweeps, std::vector<Session>& sessions,
                 double seconds, const SetupTime& setup, ReferenceClock& ref,
                 RunOutput* out) {
    std::vector<QuerySample> samples;
    double reference_s = 0;  // kept out of the throughput wall time
    const Timer phase;
    for (size_t q = 0; more_queries(q, phase.seconds() < seconds, sweeps[0]); ++q) {
        const auto [j, i] = slot(q);
        const Call c = run_candidate(sessions[j], sweeps[j].assumptions(i));
        samples.push_back({c.wall_s, c.ok && sweeps[j].judge(i, c.fp, out), kLimitS});
        reference_s += ref.catch_up();
    }
    add_end_to_end(samples, phase.seconds() - reference_s, setup, ref, out);
}

void traced_phase(const std::vector<KeySweep>& sweeps, const std::vector<Problem>& bases,
                  const EngineConfig& cfg, double seconds, RunOutput* out) {
    std::vector<PlainQuery> plain;
    const bool copied = run_untraced_copy(
        [&] {
            std::vector<PlainQuery> calls;
            std::vector<Session> sessions = open_sessions(bases, cfg);
            const Timer phase;
            for (size_t q = 0; more_queries(q, phase.seconds() < seconds / 2, sweeps[0]);
                 ++q) {
                const auto [j, i] = slot(q);
                const Call c = run_candidate(sessions[j], sweeps[j].assumptions(i));
                calls.push_back({unsigned(j), c.ok, c.wall_s, c.fp});
            }
            return calls;
        },
        &plain);
    if (!copied) {
        out->wrong("the untraced reference run failed");
        return;
    }

    LayerTotals t;
    const Timer construct;
    std::vector<Session> sessions = open_sessions(bases, cfg);
    for (Session& session : sessions) install_timed_techniques(session, cfg, &t.loop);
    t.construct_s = construct.seconds();
    const GlobalCounters before = GlobalCounters::now();
    double rss_first = 0;
    for (size_t q = 0; q < plain.size(); ++q) {
        const auto [j, i] = slot(q);
        const double bind0 = t.loop["sat"].bind_s;
        Call c = run_candidate(sessions[j], sweeps[j].assumptions(i));
        c.push_pop_s -= t.loop["sat"].bind_s - bind0;
        if (q == 0) rss_first = current_rss_mib();
        ++out->attempted;
        ++t.queries;
        if (!plain[q].ok || !c.ok) {
            ++out->failed;
            continue;
        }
        check_same(plain[q].fp, c.fp, q, out);
        if (!sweeps[j].judge(i, c.fp, out)) ++out->failed;
        t.loop_report_s += c.loop_s;
        t.iterations += c.fp.iterations;
        t.decided_in_loop += c.fp.verdict != sat::Result::kUnknown;
        t.push_pop_s += c.push_pop_s;
        t.traced_wall_s += c.wall_s;
        t.untraced_wall_s += plain[q].wall_s;
        t.accounted_s += c.loop_s + c.push_pop_s;
    }
    t.rss_growth_mib = current_rss_mib() - rss_first;
    t.solver = t.store = GlobalCounters::now() - before;
    t.store_queries = t.queries;
    t.accounted_s += t.loop["sat"].bind_s;
    add_per_layer(t, out);
}

}  // namespace

void run_sweep(const Args& args, RunOutput* out) {
    const EngineConfig cfg = engine_config(kLimitS);
    ReferenceClock ref;
    // Making the inputs is not set-up a user pays (the unique-key search
    // retries a seed-dependent number of times): setup_s times building
    // the base problems and opening their Sessions.
    const std::vector<KeySweep> sweeps = key_sweeps(args.seed);
    std::vector<Problem> bases;
    std::vector<Session> sessions;
    const SetupTime setup = time_setup(ref, [&] {
        bases.clear();
        for (const KeySweep& sw : sweeps)
            bases.push_back(Problem::from_anf(sw.inst.polys, sw.inst.num_vars));
        if (!args.trace) {
            sessions.clear();
            sessions = open_sessions(bases, cfg);
        }
    });
    if (args.trace)
        traced_phase(sweeps, bases, cfg, args.seconds, out);
    else
        timed_phase(sweeps, sessions, args.seconds, setup, ref, out);
}

}  // namespace perfbench
