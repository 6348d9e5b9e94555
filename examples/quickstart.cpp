// Quickstart: solve the paper's worked example (section II-E) with the
// public library facade.
//
//   $ ./quickstart
//
// The ANF below has the unique solution x1 = x2 = x3 = x4 = 1, x5 = 0;
// the XL step learns enough linear facts that ANF propagation solves the
// system almost immediately. Demonstrates the three facade pieces: a
// Problem (loaded incrementally here), an Engine with its technique
// registry, and structured Status/Result error handling.
#include <cstdio>

#include "anf/anf_parser.h"
#include "bosphorus/bosphorus.h"

int main() {
    using namespace bosphorus;

    // 1. Describe the problem in ANF, incrementally (each polynomial is an
    //    equation p = 0). Problem::from_anf_text would load the same system
    //    in one call.
    Problem problem;
    for (const char* line : {
             "x1*x2 + x3 + x4 + 1",
             "x1*x2*x3 + x1 + x3 + 1",
             "x1*x3 + x3*x4*x5 + x3",
             "x2*x3 + x3*x5 + 1",
             "x2*x3 + x5 + 1",
         }) {
        const Result<anf::Polynomial> poly = anf::try_parse_polynomial(line);
        if (!poly.ok()) {
            std::printf("parse failed: %s\n", poly.status().to_string().c_str());
            return 1;
        }
        problem.add_polynomial(*poly);
    }

    std::printf("input ANF (%zu equations, %zu variables):\n",
                problem.num_constraints(), problem.num_vars());
    for (const auto& p : problem.polynomials())
        std::printf("  %s = 0\n", p.to_string().c_str());

    // 2. Run the XL -> ElimLin -> SAT fact-learning loop. The Engine steps
    //    its technique registry in order; the progress callback sees every
    //    step as it happens.
    EngineConfig cfg;
    cfg.xl.m_budget = 16;  // tiny instance: small sampling budget
    cfg.elimlin.m_budget = 16;
    Engine engine(cfg);
    engine.set_progress_callback([](const Progress& p) {
        if (p.facts_fresh > 0)
            std::printf("  [iter %zu] %s learnt %zu new facts\n", p.iteration,
                        p.technique.c_str(), p.facts_fresh);
    });

    const Result<Report> run = engine.run(problem);
    if (!run.ok()) {
        std::printf("engine failed: %s\n", run.status().to_string().c_str());
        return 1;
    }
    const Report& res = *run;

    // 3. Inspect what was learnt, per technique.
    std::printf("\nlearnt facts:");
    for (const auto& t : res.techniques)
        std::printf(" %s=%zu", t.name.c_str(), t.facts);
    std::printf("\nvariables fixed: %zu, replaced by equivalences: %zu\n",
                res.vars_fixed, res.vars_replaced);

    if (res.verdict == sat::Result::kSat) {
        std::printf("\nsolution found in-loop:");
        for (size_t v = 0; v < problem.num_vars(); ++v)
            std::printf(" x%zu=%d", v + 1, res.solution[v] ? 1 : 0);
        std::printf("\n");
    } else if (res.verdict == sat::Result::kUnsat) {
        std::printf("\nUNSAT (1 = 0 derived)\n");
    } else {
        const sat::Cnf cnf = res.to_cnf(cfg.conv).cnf;
        std::printf("\nfixed point reached; processed CNF has %zu vars, "
                    "%zu clauses -- hand it to any SAT solver\n",
                    cnf.num_vars, cnf.clauses.size());
    }
    return 0;
}
