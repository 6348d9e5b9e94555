// Using the Engine as a CNF preprocessor (paper section III-D): CNF is
// converted to ANF, GF(2) reasoning learns facts, and the processed CNF
// (internal ANF plus every learnt fact) can be handed to any solver.
//
//   $ ./cnf_preprocess
//
// The demo uses an inconsistent XOR cycle -- trivial for GF(2) elimination,
// painful for plain resolution -- plus a satisfiable instance to show fact
// injection. Both feed a bosphorus::Problem through a bosphorus::Engine.
// A third section runs the same preprocessing direction out-of-core through
// bosphorus::StreamPreprocessor -- the facade the `bosphorus
// --stream-preprocess` CLI uses -- and prints the identical summary line.
#include <cstdio>
#include <sstream>

#include "bosphorus/bosphorus.h"
#include "cnfgen/generators.h"
#include "sat/dimacs.h"
#include "bosphorus/sat_backend.h"

int main() {
    using namespace bosphorus;

    Rng rng(31337);

    // 1. An UNSAT parity instance: the engine refutes it during learning.
    {
        const sat::Cnf cnf = cnfgen::xor_cycle(40, /*satisfiable=*/false, rng);
        std::printf("xor cycle (UNSAT): %zu vars, %zu clauses\n",
                    cnf.num_vars, cnf.clauses.size());
        EngineConfig cfg;
        cfg.xl.m_budget = 20;
        cfg.elimlin.m_budget = 20;
        Engine engine(cfg);
        const Result<Report> run = engine.run(Problem::from_cnf(cnf));
        if (!run.ok()) {
            std::printf("engine failed: %s\n", run.status().to_string().c_str());
            return 1;
        }
        std::printf("  engine verdict: %s (%.3fs, %zu facts from GF(2) "
                    "reasoning)\n",
                    run->verdict == sat::Result::kUnsat ? "UNSAT"
                                                        : "not decided",
                    run->seconds, run->total_facts());
    }

    // 2. A satisfiable random 3-SAT instance: preprocess, then solve.
    {
        const sat::Cnf cnf = cnfgen::random_ksat(60, 240, 3, rng);
        std::printf("\nrandom 3-SAT: %zu vars, %zu clauses\n", cnf.num_vars,
                    cnf.clauses.size());
        EngineConfig cfg;
        cfg.xl.m_budget = 18;
        cfg.elimlin.m_budget = 18;
        cfg.sat_conflicts_start = 2'000;
        cfg.max_iterations = 4;
        Engine engine(cfg);
        const Result<Report> run = engine.run(Problem::from_cnf(cnf));
        if (!run.ok()) {
            std::printf("engine failed: %s\n", run.status().to_string().c_str());
            return 1;
        }
        const Report& res = *run;
        std::printf("  learnt facts:");
        for (const auto& t : res.techniques)
            std::printf(" %s=%zu", t.name.c_str(), t.facts);
        std::printf("; fixed=%zu equiv=%zu\n", res.vars_fixed,
                    res.vars_replaced);

        // The processed CNF (internal ANF + facts) can be written to DIMACS
        // and handed to any external solver.
        const sat::Cnf processed = res.to_cnf(cfg.conv).cnf;
        std::ostringstream dimacs;
        sat::write_dimacs(dimacs, processed);
        std::printf("  processed CNF: %zu vars, %zu clauses (DIMACS %zu "
                    "bytes)\n",
                    processed.num_vars, processed.clauses.size(),
                    dimacs.str().size());

        const auto so = sat::solve_cnf_with(processed, "lingeling", 60.0);
        if (!so.ok()) {
            std::printf("  backend error: %s\n",
                        so.status().to_string().c_str());
            return 1;
        }
        std::printf("  lingeling-like verdict on processed CNF: %s "
                    "(%.3fs, %llu conflicts)\n",
                    so->result == sat::Result::kSat     ? "SAT"
                    : so->result == sat::Result::kUnsat ? "UNSAT"
                                                        : "UNKNOWN",
                    so->seconds,
                    static_cast<unsigned long long>(so->stats.conflicts));
    }

    // 3. The streaming preprocessor: the same parse -> XOR-recover ->
    // simplify -> re-emit direction, but windowed under a hard memory
    // budget so the input may be arbitrarily larger than RAM. This is
    // exactly what `bosphorus --stream-preprocess IN OUT` runs; the
    // summary line below is the same one the CLI prints.
    {
        cnfgen::StreamDimacs gen;
        gen.num_vars = 300;
        gen.num_clauses = 3000;
        std::ostringstream in;
        cnfgen::write_stream_dimacs(in, gen, rng);
        std::printf("\nstreamed mixed DIMACS: %llu vars, %llu clauses "
                    "(%zu bytes)\n",
                    static_cast<unsigned long long>(gen.num_vars),
                    static_cast<unsigned long long>(gen.num_clauses),
                    in.str().size());

        StreamPreprocessConfig cfg;
        cfg.memory_budget_bytes = 4ull << 20;
        StreamPreprocessor stream_pp(cfg);
        std::string out_text;
        const Result<StreamPreprocessStats> stats =
            stream_pp.run_text(in.str(), &out_text);
        if (!stats.ok()) {
            std::printf("stream preprocessor failed: %s\n",
                        stats.status().to_string().c_str());
            return 1;
        }
        std::printf("%s\n", stream_summary_line(*stats).c_str());

        // The streamed output is a valid DIMACS formula, equisatisfiable
        // with the input: solve it like any other CNF.
        std::istringstream out_in(out_text);
        const sat::Cnf processed = sat::read_dimacs(out_in);
        const auto so = sat::solve_cnf_with(processed, "cms", 60.0);
        if (!so.ok()) {
            std::printf("  backend error: %s\n",
                        so.status().to_string().c_str());
            return 1;
        }
        std::printf("  cms-like verdict on streamed output: %s (planted "
                    "instance, expect SAT)\n",
                    so->result == sat::Result::kSat     ? "SAT"
                    : so->result == sat::Result::kUnsat ? "UNSAT"
                                                        : "UNKNOWN");
    }
    return 0;
}
