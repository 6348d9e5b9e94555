// Incremental-solving benchmark -- warm Session re-solves vs an
// equivalent cold Engine::run loop on a Simon-style key sweep.
//
// One planted overdetermined quadratic ANF system stands in for a cipher
// encoding; the sweep enumerates all assignments of the first
// BENCH_SWEEP_BITS "key" variables (one of which matches the planted
// model). The cold loop pays full materialisation + simplification per
// candidate; the warm loop opens a Session scope, assumes the bits,
// re-solves against the already-simplified base with a live SAT solver,
// and pops.
//
// Checks, enforced with a nonzero exit code:
//  * warm and cold verdicts are bit-identical per candidate, and so are
//    the SAT solutions (the planted system is overdetermined, so models
//    are unique);
//  * a second warm sweep reproduces the first exactly (determinism);
//  * a third sweep with SAT in-processing disabled must match the cold
//    verdicts bit for bit, and the in-processing cold overhead must stay
//    within 5% (+0.1s absolute timing slack);
//  * vivification must spend at most InprocessConfig::vivify_effort of
//    the search's ticks (watch-list entries visited), summed over every
//    in-processing solver of the run: vivify_tick_share;
//  * the warm loop must not be slower than cold (5% noise slack; the
//    strict comparison is still reported as warm_strictly_faster);
//  * warm XOR arm: one native solver with XOR reasoning answers 1000
//    solve_assuming calls, cycling through eight assumption sets over a
//    planted 60-variable 3-SAT + XOR instance. Every call's verdict must
//    match that of a fresh solver without XOR reasoning (the XORs
//    expanded to clauses), an assumption set the planted assignment
//    satisfies must come out SAT, every model must satisfy the
//    instance, and arena_growth -- the solver's clause-arena
//    high-water mark (in words, after a call) over the whole run divided
//    by the one over its first tenth -- must stay <= 1.10. A count, so
//    machine-independent: XOR reason clauses are garbage after their
//    call, and without arena collection they pile up call after call.
//
// Output is machine-readable JSON, printed to stdout and written to
// BENCH_incremental.json (override with BENCH_JSON_OUT). Knobs:
// BENCH_VARS (32), BENCH_EQS (48), BENCH_SWEEP_BITS (4), BENCH_SEED (1).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bosphorus/bosphorus.h"
#include "cnfgen/generators.h"
#include "sat/inprocess/inprocess.h"
#include "sat/solve_cnf.h"
#include "sat/solver.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace bosphorus;

namespace {

size_t env_or(const char* name, size_t fallback) {
    if (const char* v = std::getenv(name)) return std::strtoul(v, nullptr, 10);
    return fallback;
}

EngineConfig bench_config(uint64_t seed) {
    EngineConfig cfg;
    cfg.xl.m_budget = 18;
    cfg.elimlin.m_budget = 18;
    cfg.sat_conflicts_start = 2'000;
    cfg.sat_conflicts_max = 20'000;
    cfg.sat_conflicts_step = 2'000;
    cfg.max_iterations = 12;
    cfg.time_budget_s = 30.0;
    cfg.seed = seed;
    return cfg;
}

struct Outcome {
    sat::Result verdict = sat::Result::kUnknown;
    std::vector<bool> solution;

    bool operator==(const Outcome&) const = default;
};

const char* verdict_name(sat::Result r) {
    if (r == sat::Result::kSat) return "sat";
    if (r == sat::Result::kUnsat) return "unsat";
    return "unknown";
}

/// The warm XOR arm (see the file comment).
struct XorArm {
    size_t calls = 0;
    size_t sat = 0, unsat = 0;
    uint64_t xor_propagations = 0;
    size_t arena_peak_tenth = 0;  ///< high-water mark over the first tenth
    size_t arena_peak = 0;        ///< high-water mark over the whole run
    bool verdicts_ok = true;
    double arena_growth() const {
        return arena_peak_tenth ? static_cast<double>(arena_peak) /
                                      static_cast<double>(arena_peak_tenth)
                                : 0.0;
    }
};

XorArm run_xor_arm(uint64_t seed) {
    constexpr size_t kCalls = 1000;
    constexpr size_t kVars = 60, kClauses = 180, kXors = 20, kXorLen = 5;
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
    std::vector<bool> planted(kVars);
    for (size_t v = 0; v < kVars; ++v) planted[v] = rng.coin();
    sat::Cnf cnf = cnfgen::random_ksat(kVars, kClauses, 3, rng);
    for (auto& clause : cnf.clauses) {
        bool satisfied = false;
        for (const sat::Lit l : clause) satisfied |= planted[l.var()] != l.sign();
        if (!satisfied) clause[0] = ~clause[0];
    }
    for (size_t i = 0; i < kXors; ++i) {
        sat::XorConstraint x;
        for (size_t j = 0; j < kXorLen; ++j) {
            x.vars.push_back(static_cast<sat::Var>(rng.below(kVars)));
            x.rhs ^= planted[x.vars.back()];
        }
        cnf.xors.push_back(std::move(x));
    }
    std::vector<std::vector<sat::Lit>> sweep(8);
    for (auto& assume : sweep) {
        for (int k = 0; k < 3; ++k)
            assume.push_back(sat::mk_lit(
                static_cast<sat::Var>(rng.below(kVars)), rng.coin()));
    }

    // Reference verdicts: a fresh solver per assumption set, with the
    // XORs expanded to clauses, so no XOR reason, XOR conflict clause or
    // Gauss-Jordan pass is involved. An assumption set that the planted
    // assignment satisfies must be SAT whatever the reference says.
    XorArm arm;
    std::vector<sat::Result> expected;
    for (const auto& assume : sweep) {
        sat::Solver fresh;
        expected.push_back(fresh.load(cnf) ? fresh.solve_assuming(assume)
                                           : sat::Result::kUnsat);
        bool planted_ok = true;
        for (const sat::Lit l : assume)
            planted_ok &= planted[l.var()] != l.sign();
        if (planted_ok && expected.back() != sat::Result::kSat)
            arm.verdicts_ok = false;
    }

    arm.calls = kCalls;
    sat::Solver::Config scfg;
    scfg.enable_xor = true;
    sat::Solver s(scfg);
    arm.verdicts_ok &= s.load(cnf);
    for (size_t call = 1; call <= kCalls && arm.verdicts_ok; ++call) {
        const size_t i = call % sweep.size();
        const sat::Result r = s.solve_assuming(sweep[i]);
        if (r != expected[i]) arm.verdicts_ok = false;
        if (r == sat::Result::kSat) {
            ++arm.sat;
            if (!sat::model_satisfies(cnf, s.model())) arm.verdicts_ok = false;
        } else if (r == sat::Result::kUnsat) {
            ++arm.unsat;
        }
        arm.arena_peak = std::max(arm.arena_peak, s.arena_words());
        if (call == kCalls / 10) arm.arena_peak_tenth = arm.arena_peak;
    }
    arm.xor_propagations = s.stats().xor_propagations;
    return arm;
}

}  // namespace

int main() {
    const size_t num_vars = env_or("BENCH_VARS", 32);
    const size_t num_eqs = env_or("BENCH_EQS", 48);
    const size_t sweep_bits = env_or("BENCH_SWEEP_BITS", 4);
    const auto seed = static_cast<uint64_t>(env_or("BENCH_SEED", 1));
    const char* json_path = std::getenv("BENCH_JSON_OUT");
    if (!json_path) json_path = "BENCH_incremental.json";

    Rng gen_rng(seed * 0x9E3779B9ULL + 7);
    cnfgen::PlantedAnf inst = cnfgen::planted_quadratic_anf(
        num_vars, num_eqs, 3, 2, gen_rng);
    const Problem base = Problem::from_anf(inst.polys, inst.num_vars);
    const size_t n_candidates = size_t{1} << sweep_bits;
    const EngineConfig cfg = bench_config(seed);
    // Vivification effort over every in-processing solver the sweeps
    // build (solvers with in-processing off publish no ticks).
    const auto& counters = sat::inprocess::counters();
    const uint64_t vivify_ticks0 = counters.vivify_ticks.load();
    const uint64_t search_ticks0 = counters.search_ticks.load();

    // (a) Cold reference: every candidate re-materialises the full system
    // (base + assumption units) and runs a fresh one-shot Engine. Run
    // once with the default config and once with SAT in-processing
    // disabled -- the verdicts must agree exactly and the in-processing
    // overhead on cold one-shot solves is gated below.
    auto cold_sweep = [&](const EngineConfig& sweep_cfg, double* seconds,
                          std::vector<Outcome>* out) {
        Timer cold_timer;
        out->clear();
        out->reserve(n_candidates);
        for (size_t mask = 0; mask < n_candidates; ++mask) {
            Problem p = base;
            for (size_t v = 0; v < sweep_bits; ++v) {
                anf::Polynomial unit = anf::Polynomial::variable(
                    static_cast<anf::Var>(v));
                if ((mask >> v) & 1) unit += anf::Polynomial::constant(true);
                if (!p.add_polynomial(unit).ok()) return false;
            }
            Engine engine(sweep_cfg);
            Result<Report> r = engine.run(p);
            if (!r.ok()) {
                std::fprintf(stderr, "cold run %zu failed: %s\n", mask,
                             r.status().to_string().c_str());
                return false;
            }
            out->push_back({r->verdict, std::move(r->solution)});
        }
        *seconds = cold_timer.seconds();
        return true;
    };
    double cold_s = 0.0;
    std::vector<Outcome> cold;
    if (!cold_sweep(cfg, &cold_s, &cold)) return 1;

    EngineConfig cfg_noinproc = cfg;
    cfg_noinproc.sat_inprocess = false;
    double cold_noinproc_s = 0.0;
    std::vector<Outcome> cold_noinproc;
    if (!cold_sweep(cfg_noinproc, &cold_noinproc_s, &cold_noinproc)) return 1;

    // (b) The warm loop: one Session, one base simplification, push /
    // assume / solve / pop per candidate. Run twice for the determinism
    // check.
    auto warm_sweep = [&](double* seconds) {
        Timer warm_timer;
        std::vector<Outcome> out;
        out.reserve(n_candidates);
        Session session(base, cfg);
        for (size_t mask = 0; mask < n_candidates; ++mask) {
            if (!session.push().ok()) return out;
            for (size_t v = 0; v < sweep_bits; ++v) {
                if (!session.assume(static_cast<anf::Var>(v), (mask >> v) & 1)
                         .ok())
                    return out;
            }
            Result<Report> r = session.solve();
            if (!r.ok()) {
                std::fprintf(stderr, "warm solve %zu failed: %s\n", mask,
                             r.status().to_string().c_str());
                return out;
            }
            out.push_back({r->verdict, std::move(r->solution)});
            if (!session.pop().ok()) return out;
        }
        *seconds = warm_timer.seconds();
        return out;
    };
    double warm_s = 0.0, warm2_s = 0.0;
    const std::vector<Outcome> warm = warm_sweep(&warm_s);
    const std::vector<Outcome> warm2 = warm_sweep(&warm2_s);

    // Three nested checks, strictest first:
    //  * identical      -- warm == cold bit for bit (holds at the default
    //                      knobs; larger instances can leave one path at
    //                      kUnknown within its budgets);
    //  * no_contradiction / solutions equal -- a SAT-vs-UNSAT clash or a
    //    model mismatch where both decided would be a soundness bug;
    //  * as_decisive    -- warm must never be *weaker* (cold decided,
    //                      warm kUnknown): the live solver falls back to
    //                      a cold step exactly to guarantee this.
    const bool identical = warm.size() == n_candidates && warm == cold;
    const bool deterministic = warm == warm2;
    bool no_contradiction = warm.size() == n_candidates;
    bool as_decisive = warm.size() == n_candidates;
    size_t n_sat = 0, n_unsat = 0, n_unknown = 0;
    for (size_t i = 0; i < cold.size(); ++i) {
        switch (cold[i].verdict) {
            case sat::Result::kSat: ++n_sat; break;
            case sat::Result::kUnsat: ++n_unsat; break;
            default: ++n_unknown; break;
        }
        if (i >= warm.size()) break;
        const sat::Result cv = cold[i].verdict, wv = warm[i].verdict;
        if (cv != sat::Result::kUnknown && wv != sat::Result::kUnknown) {
            if (cv != wv) no_contradiction = false;
            if (cv == sat::Result::kSat && wv == sat::Result::kSat &&
                cold[i].solution != warm[i].solution)
                no_contradiction = false;
        }
        if (cv != sat::Result::kUnknown && wv == sat::Result::kUnknown)
            as_decisive = false;
        if (!(warm[i] == cold[i])) {
            std::fprintf(stderr,
                         "candidate %zu diverged: cold=%s warm=%s\n", i,
                         verdict_name(cv), verdict_name(wv));
        }
    }

    // In-processing differential: same verdicts (and models) with the
    // engine on and off, and a bounded cold-solve overhead. The absolute
    // 0.1s slack keeps the 5% relative gate meaningful at sub-second
    // sweep times, where timer noise dominates; it is larger than the
    // whole cold sweep of the CI preset (~0.07 s on a 4-vCPU VM), so at
    // that size this gate cannot fail. The tick share below is the
    // machine-independent gate on in-processing cost.
    const bool inproc_verdicts_identical = cold_noinproc == cold;
    const double inprocess_overhead =
        cold_noinproc_s > 0 ? cold_s / cold_noinproc_s - 1.0 : 0.0;
    const bool inproc_overhead_ok =
        cold_s <= cold_noinproc_s * 1.05 + 0.1;

    // Vivification may spend at most vivify_effort of the search's own
    // ticks (each solver's last pass may overshoot by one clause's
    // propagation, which the share has to absorb).
    const uint64_t vivify_ticks = counters.vivify_ticks.load() - vivify_ticks0;
    const uint64_t search_ticks = counters.search_ticks.load() - search_ticks0;
    const double vivify_tick_share =
        search_ticks > 0 ? static_cast<double>(vivify_ticks) /
                               static_cast<double>(search_ticks)
                         : 0.0;
    const bool vivify_effort_ok =
        vivify_tick_share <= sat::inprocess::InprocessConfig{}.vivify_effort;
    const bool warm_not_slower = warm_s <= cold_s * 1.05;

    const XorArm xor_arm = run_xor_arm(seed);
    const bool arena_bounded = xor_arm.arena_growth() <= 1.10;

    const double speedup = warm_s > 0 ? cold_s / warm_s : 0.0;
    char json[3072];
    std::snprintf(
        json, sizeof(json),
        "{\n"
        "  \"bench\": \"incremental\",\n"
        "  \"vars\": %zu,\n"
        "  \"equations\": %zu,\n"
        "  \"sweep_bits\": %zu,\n"
        "  \"candidates\": %zu,\n"
        "  \"seed\": %llu,\n"
        "  \"cold_s\": %.4f,\n"
        "  \"cold_no_inprocess_s\": %.4f,\n"
        "  \"warm_s\": %.4f,\n"
        "  \"warm_repeat_s\": %.4f,\n"
        "  \"speedup\": %.3f,\n"
        "  \"inprocess_overhead\": %.4f,\n"
        "  \"inprocess_overhead_ok\": %s,\n"
        "  \"inprocess_verdicts_identical\": %s,\n"
        "  \"vivify_tick_share\": %.4f,\n"
        "  \"vivify_effort_ok\": %s,\n"
        "  \"warm_strictly_faster\": %s,\n"
        "  \"warm_not_slower\": %s,\n"
        "  \"verdicts_identical\": %s,\n"
        "  \"no_contradictions\": %s,\n"
        "  \"warm_at_least_as_decisive\": %s,\n"
        "  \"deterministic\": %s,\n"
        "  \"verdicts\": {\"sat\": %zu, \"unsat\": %zu, \"unknown\": %zu},\n"
        "  \"xor_arm\": {\"calls\": %zu, \"sat\": %zu, \"unsat\": %zu, "
        "\"xor_propagations\": %llu, \"verdicts_ok\": %s, "
        "\"arena_words_peak_tenth\": %zu, \"arena_words_peak\": %zu},\n"
        "  \"arena_growth\": %.4f,\n"
        "  \"arena_bounded\": %s\n"
        "}\n",
        num_vars, num_eqs, sweep_bits, n_candidates,
        static_cast<unsigned long long>(seed), cold_s, cold_noinproc_s,
        warm_s, warm2_s, speedup, inprocess_overhead,
        inproc_overhead_ok ? "true" : "false",
        inproc_verdicts_identical ? "true" : "false", vivify_tick_share,
        vivify_effort_ok ? "true" : "false",
        warm_s < cold_s ? "true" : "false",
        warm_not_slower ? "true" : "false",
        identical ? "true" : "false", no_contradiction ? "true" : "false",
        as_decisive ? "true" : "false", deterministic ? "true" : "false",
        n_sat, n_unsat, n_unknown, xor_arm.calls, xor_arm.sat, xor_arm.unsat,
        static_cast<unsigned long long>(xor_arm.xor_propagations),
        xor_arm.verdicts_ok ? "true" : "false", xor_arm.arena_peak_tenth,
        xor_arm.arena_peak, xor_arm.arena_growth(),
        arena_bounded ? "true" : "false");

    std::fputs(json, stdout);
    if (std::ofstream out{json_path}) out << json;
    else std::fprintf(stderr, "warning: cannot write %s\n", json_path);

    return (no_contradiction && as_decisive && deterministic &&
            inproc_verdicts_identical && inproc_overhead_ok &&
            vivify_effort_ok && warm_not_slower && xor_arm.verdicts_ok &&
            arena_bounded)
               ? 0
               : 1;
}
