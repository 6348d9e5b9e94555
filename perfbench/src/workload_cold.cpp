// simon-cold and sr-cold: one-shot key recovery through bosphorus::solve()
// with the Bosphorus loop in front of the "cms" back end (a Table II
// "w Bosphorus" cell). The traced run replays solve()'s two stages --
// Engine::run, then the registry back end on the processed CNF when the
// loop left the instance undecided -- with timed techniques and a timed
// back end, and checks the replay against an untraced replay of the same
// query. Traced and untraced replays alternate which runs first, so
// neither always meets a warmer monomial store.
#include <algorithm>

#include "core/anf_to_cnf.h"
#include "crypto/simon.h"
#include "reference.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

using namespace bosphorus;

namespace {

constexpr double kLimitS = 20.0;  // per instance; far above the worst seen
// sr-cold gives away this many key bits and runs XL/ElimLin with
// M = 16 instead of 20. Plain SR(2,2,2,4) is heavy-tailed (p50 0.5 s,
// one instance in ten over 3 s on a 4-core 2 GHz VM): too few instances
// fit in a run to measure it steadily. With 3 known bits a query takes
// about 0.15 s with a short tail, and with M = 16 the cold SAT step is
// about 70% of it, as it is about 87% for the plain class.
constexpr anf::Var kKnownKeyBits = 3;
constexpr unsigned kSrColdMBudget = 16;

struct ColdQuery {
    Problem problem;
    std::vector<anf::Polynomial> polys;
    size_t num_vars = 0;
};

std::vector<ColdQuery> make_pool(bool simon, uint64_t seed) {
    // More instances than a run on a 4-core VM consumes: no repeats.
    const size_t pool_size = simon ? 96 : 256;
    std::vector<ColdQuery> pool;
    Rng rng(seed * 1000003ULL + (simon ? 7 : 13));
    const crypto::Simon32 cipher(7);             // Simon-[9,7]
    const crypto::SmallScaleAes aes(kSrParams);
    for (size_t i = 0; i < pool_size; ++i) {
        ColdQuery q;
        if (simon) {
            auto inst = cipher.encode(9, rng);
            q.polys = std::move(inst.polys);
            q.num_vars = inst.num_vars;
        } else {
            auto inst = aes.random_instance(rng);
            for (anf::Var b = 0; b < kKnownKeyBits; ++b) {
                anf::Polynomial bit = anf::Polynomial::variable(b);
                if (inst.witness[b]) bit += anf::Polynomial::constant(true);
                inst.polys.push_back(std::move(bit));
            }
            q.polys = std::move(inst.polys);
            q.num_vars = inst.num_vars;
        }
        pool.push_back(std::move(q));
    }
    return pool;
}

SolveConfig solve_config(bool simon) {
    SolveConfig cfg;
    cfg.engine = engine_config(kLimitS);
    if (!simon) cfg.engine.xl.m_budget = cfg.engine.elimlin.m_budget = kSrColdMBudget;
    cfg.preprocess = true;
    cfg.solver = "cms";
    cfg.timeout_s = kLimitS;
    cfg.engine_budget_s = 0.4 * kLimitS;
    return cfg;
}

struct Replay {
    bool ok = false;
    Fingerprint fp;
    double wall_s = 0;
    double loop_s = 0;  // Report::seconds
    bool in_loop = false;
};

/// solve()'s two stages, with timed techniques and back end when
/// `tallies` is set. The verdict rules are solve()'s: a model that fails
/// the check against the original ANF is no verdict.
Replay replay(const ColdQuery& q, const SolveConfig& cfg, LoopTallies* tallies) {
    Replay out;
    const Timer timer;
    EngineConfig ecfg = cfg.engine;
    ecfg.time_budget_s = std::min(cfg.engine_budget_s, cfg.timeout_s);
    Engine engine(ecfg);
    if (tallies) install_timed_techniques(engine, ecfg, tallies);
    Result<Report> run = engine.run(q.problem);
    if (!run.ok()) return out;
    out.ok = true;
    out.fp = fingerprint(*run);
    out.loop_s = run->seconds;
    out.in_loop = run->verdict != sat::Result::kUnknown;
    if (!out.in_loop) {
        core::Anf2CnfConfig conv = cfg.engine.conv;
        conv.native_xor = false;
        const core::Anf2CnfResult cnf =
            core::anf_to_cnf(run->processed_anf, q.num_vars, conv);
        const double remaining = std::max(0.1, cfg.timeout_s - timer.seconds());
        const std::string spec =
            tallies ? timed_backend_spec(cfg.solver.spec) : cfg.solver.spec;
        auto so = sat::solve_cnf_with(cnf.cnf, spec, remaining);
        if (!so.ok()) {
            out.ok = false;
            return out;
        }
        out.fp.verdict = so->result;
        out.fp.solution.assign(q.num_vars, false);
        for (size_t v = 0; v < q.num_vars && v < so->model.size(); ++v)
            out.fp.solution[v] = so->model[v] == sat::LBool::kTrue;
    }
    if (out.fp.verdict == sat::Result::kSat && !satisfies(q.polys, out.fp.solution))
        out.fp.verdict = sat::Result::kUnknown;
    out.wall_s = timer.seconds();
    return out;
}

/// The instances are satisfiable by construction: UNSAT is wrong.
bool judge(sat::Result verdict, size_t i, RunOutput* out) {
    if (verdict == sat::Result::kUnsat) {
        out->wrong("query " + std::to_string(i) + ": UNSAT on a satisfiable instance");
        return false;
    }
    return verdict == sat::Result::kSat;
}

void timed_phase(const std::vector<ColdQuery>& pool, const SolveConfig& cfg,
                 double seconds, const SetupTime& setup, ReferenceClock& ref,
                 RunOutput* out) {
    std::vector<QuerySample> samples;
    double reference_s = 0;  // kept out of the throughput wall time
    const Timer phase;
    for (size_t i = 0; phase.seconds() < seconds; ++i) {
        const Timer timer;
        Result<SolveOutcome> r = solve(pool[i % pool.size()].problem, cfg);
        QuerySample s{0, false, kLimitS};
        s.latency_s = timer.seconds();
        // solve() checks a SAT model against the original ANF itself and
        // returns no model; an unverified model is a wrong answer.
        if (r.ok() && r->result == sat::Result::kSat && !r->model_verified)
            out->wrong("query " + std::to_string(i) + ": unverified model");
        else if (r.ok())
            s.solved = judge(r->result, i, out);
        samples.push_back(s);
        reference_s += ref.catch_up();
    }
    add_end_to_end(samples, phase.seconds() - reference_s, setup, ref, out);
}

void traced_phase(const std::vector<ColdQuery>& pool, const SolveConfig& cfg,
                  double seconds, RunOutput* out) {
    LayerTotals t;
    const Timer phase;
    for (size_t i = 0; phase.seconds() < seconds; ++i) {
        const ColdQuery& q = pool[i % pool.size()];
        const bool traced_first = i % 2 == 0;
        Replay plain, traced;
        GlobalCounters delta;
        if (!traced_first) plain = replay(q, cfg, nullptr);
        {
            const GlobalCounters before = GlobalCounters::now();
            traced = replay(q, cfg, &t.loop);
            delta = GlobalCounters::now() - before;
        }
        if (traced_first) plain = replay(q, cfg, nullptr);

        ++out->attempted;
        ++t.queries;
        if (!plain.ok || !traced.ok) {
            ++out->failed;
            continue;
        }
        check_same(plain.fp, traced.fp, i, out);
        if (!judge(traced.fp.verdict, i, out)) ++out->failed;

        t.solver += delta;
        if (traced_first) {  // the store deltas of a first visit only
            t.store += delta;
            ++t.store_queries;
        }
        t.loop_report_s += traced.loop_s;
        t.iterations += traced.fp.iterations;
        t.decided_in_loop += traced.in_loop;
        t.traced_wall_s += traced.wall_s;
        t.untraced_wall_s += plain.wall_s;
    }
    // Only traced replays use the timed back end.
    t.backend = backend_tally();
    t.accounted_s = t.loop_report_s + t.backend.load_s + t.backend.solve_s;
    add_per_layer(t, out);
}

}  // namespace

void run_cold(const Args& args, RunOutput* out) {
    const bool simon = args.workload == "simon-cold";
    ReferenceClock ref;
    // Making the instances is not set-up a user pays: setup_s times
    // building their Problems.
    std::vector<ColdQuery> pool = make_pool(simon, args.seed);
    const SetupTime setup = time_setup(ref, [&] {
        for (ColdQuery& q : pool) q.problem = Problem::from_anf(q.polys, q.num_vars);
    });
    const SolveConfig cfg = solve_config(simon);
    if (args.trace)
        traced_phase(pool, cfg, args.seconds, out);
    else
        timed_phase(pool, cfg, args.seconds, setup, ref, out);
}

}  // namespace perfbench
