// Shared harness for the Table II reproductions: run a class of instances
// through {MiniSat-like, Lingeling-like, CMS-like} x {w/o, w Bosphorus} and
// print PAR-2 scores with solved counts in the paper's layout.
//
// Built on the library facade: each instance is a bosphorus::Problem and
// each cell is a bosphorus::solve() call.
//
// Scaling: the paper uses a 5,000 s timeout and 50-500 instances per class;
// that is a multi-CPU-month budget. The harness defaults to laptop-scale
// (BENCH_INSTANCES, BENCH_TIMEOUT env vars override) -- per DESIGN.md the
// claim under test is the *shape* of the table (who wins, where Bosphorus's
// overhead shows), not the absolute numbers.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bosphorus/bosphorus.h"

namespace bosphorus::bench {

struct BenchScale {
    size_t instances = 5;
    double timeout_s = 10.0;
    double bosphorus_budget_s = 4.0;
    uint64_t seed = 1;

    static BenchScale from_env(size_t default_instances = 5,
                               double default_timeout = 10.0) {
        BenchScale s;
        s.instances = default_instances;
        s.timeout_s = default_timeout;
        if (const char* v = std::getenv("BENCH_INSTANCES"))
            s.instances = std::strtoul(v, nullptr, 10);
        if (const char* v = std::getenv("BENCH_TIMEOUT"))
            s.timeout_s = std::strtod(v, nullptr);
        if (const char* v = std::getenv("BENCH_SEED"))
            s.seed = std::strtoull(v, nullptr, 10);
        s.bosphorus_budget_s = s.timeout_s * 0.4;
        return s;
    }
};

/// One ANF instance of a benchmark class.
struct AnfInstance {
    std::vector<anf::Polynomial> polys;
    size_t num_vars = 0;
    bool known_sat = true;  ///< generators produce satisfiable instances
};

/// Result cell: PAR-2 and solved counts, as in Table II.
struct Cell {
    double par2 = 0.0;
    size_t solved_sat = 0;
    size_t solved_unsat = 0;
};

/// The three Table II back ends, as registry names, in column order.
inline constexpr const char* kTable2Solvers[] = {"minisat", "lingeling",
                                                 "cms"};

inline SolveConfig make_config(const char* solver, bool use_bosphorus,
                               const BenchScale& scale) {
    SolveConfig cfg;
    cfg.solver = solver;
    cfg.preprocess = use_bosphorus;
    cfg.timeout_s = scale.timeout_s;
    cfg.engine_budget_s = scale.bosphorus_budget_s;
    // Paper parameters scaled for laptop budgets: M = 20 instead of 30
    // (the 2^30 sampling budget targets the authors' large-memory nodes);
    // conflict schedule kept at the paper's values.
    cfg.engine.xl.m_budget = 20;
    cfg.engine.elimlin.m_budget = 20;
    cfg.engine.xl.degree = 1;
    cfg.engine.conv.karnaugh_k = 8;
    cfg.engine.conv.xor_cut = 5;
    cfg.engine.clause_cut = 5;
    cfg.engine.sat_conflicts_start = 10'000;
    cfg.engine.sat_conflicts_max = 100'000;
    cfg.engine.sat_conflicts_step = 10'000;
    cfg.engine.max_iterations = 16;
    return cfg;
}

/// Run one class row (w/o and w) across the three solvers and print the two
/// Table II rows.
inline void run_class_row(
    const std::string& name,
    const std::function<AnfInstance(size_t)>& make_instance,
    const BenchScale& scale) {
    // Generate instances once, as facade problems.
    std::vector<Problem> problems;
    for (size_t i = 0; i < scale.instances; ++i) {
        AnfInstance inst = make_instance(i);
        problems.push_back(
            Problem::from_anf(std::move(inst.polys), inst.num_vars));
    }

    for (const bool with : {false, true}) {
        std::printf("%-14s %-3s", with ? "" : name.c_str(),
                    with ? "w" : "w/o");
        for (const char* solver : kTable2Solvers) {
            Cell cell;
            std::vector<SolveOutcome> outcomes;
            for (const auto& problem : problems) {
                const Result<SolveOutcome> run =
                    solve(problem, make_config(solver, with, scale));
                if (!run.ok()) {
                    // Score the failure as unsolved so it penalises the
                    // cell's PAR-2 instead of flattering it.
                    std::fprintf(stderr, "c solve error: %s\n",
                                 run.status().to_string().c_str());
                    outcomes.emplace_back();
                    continue;
                }
                outcomes.push_back(*run);
                if (run->result == sat::Result::kSat) ++cell.solved_sat;
                if (run->result == sat::Result::kUnsat) ++cell.solved_unsat;
            }
            cell.par2 = par2_score(outcomes, scale.timeout_s);
            if (cell.solved_unsat > 0) {
                std::printf("  %8.1f (%2zu+%zu)", cell.par2, cell.solved_sat,
                            cell.solved_unsat);
            } else {
                std::printf("  %8.1f (%2zu)  ", cell.par2, cell.solved_sat);
            }
        }
        std::printf("\n");
    }
}

inline void print_header(const char* title, const BenchScale& scale) {
    std::printf("=== %s ===\n", title);
    std::printf("instances per class: %zu, timeout: %.0fs (paper: 5000s; "
                "PAR-2 = solved runtimes + 2x timeout per unsolved)\n",
                scale.instances, scale.timeout_s);
    std::printf("%-14s %-3s  %-15s  %-15s  %-15s\n", "class", "", "minisat-like",
                "lingeling-like", "cms-like");
}

}  // namespace bosphorus::bench
