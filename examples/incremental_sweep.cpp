// Guess-and-determine with the incremental Session API.
//
//   $ ./incremental_sweep [key bits] [vars] [equations]
//
// A planted quadratic ANF system stands in for a cipher encoding with a
// secret key. The sweep enumerates every assignment of the first
// `key bits` variables -- the guess-and-determine pattern behind the
// paper's Simon/AES/Bitcoin use cases. The base system is simplified
// ONCE into a Session; each candidate is then a push / assume / solve /
// pop round trip that reuses everything already learnt, with the in-loop
// SAT solver kept alive and fed the candidate as native assumptions.
// The multi-core variant of the same sweep is one call:
// BatchEngine::solve_all_incremental.
#include <cstdio>
#include <cstdlib>

#include "bosphorus/bosphorus.h"
#include "cnfgen/generators.h"

int main(int argc, char** argv) {
    using namespace bosphorus;

    const size_t key_bits = argc > 1 ? std::atoi(argv[1]) : 4;
    const size_t num_vars = argc > 2 ? std::atoi(argv[2]) : 28;
    const size_t num_eqs = argc > 3 ? std::atoi(argv[3]) : 44;

    Rng rng(2026);
    const cnfgen::PlantedAnf inst =
        cnfgen::planted_quadratic_anf(num_vars, num_eqs, 3, 2, rng);
    const Problem base = Problem::from_anf(inst.polys, inst.num_vars);

    std::printf("incremental sweep: %zu equations over %zu vars, "
                "%zu key bits -> %zu candidates\n",
                num_eqs, num_vars, key_bits, size_t{1} << key_bits);
    std::printf("secret key bits:");
    for (size_t v = 0; v < key_bits; ++v)
        std::printf(" %d", inst.planted[v] ? 1 : 0);
    std::printf("\n\n");

    EngineConfig cfg;
    cfg.xl.m_budget = 18;
    cfg.elimlin.m_budget = 18;
    cfg.sat_conflicts_start = 2'000;
    cfg.max_iterations = 12;
    cfg.time_budget_s = 30.0;

    Session session(base, cfg);  // the base is simplified exactly once
    size_t recovered = 0;
    bool match = false;
    for (size_t mask = 0; mask < (size_t{1} << key_bits); ++mask) {
        session.push();
        for (size_t v = 0; v < key_bits; ++v)
            session.assume(static_cast<anf::Var>(v), (mask >> v) & 1);
        const Result<Report> r = session.solve();
        if (!r.ok()) {
            std::printf("solve failed: %s\n", r.status().to_string().c_str());
            return 1;
        }
        if (r->verdict == sat::Result::kSat) {
            ++recovered;
            bool is_planted = true;
            for (size_t v = 0; v < key_bits; ++v)
                is_planted &= (((mask >> v) & 1) != 0) == inst.planted[v];
            match |= is_planted;
            std::printf("candidate %2zu: SAT  (%.3fs, %zu facts)%s\n", mask,
                        r->seconds, r->total_facts(),
                        is_planted ? "  <- planted key" : "");
        } else {
            std::printf("candidate %2zu: %s (%.3fs)\n", mask,
                        r->verdict == sat::Result::kUnsat ? "UNSAT"
                                                          : "UNKNOWN",
                        r->seconds);
        }
        session.pop();
    }

    std::printf("\n%zu candidate(s) consistent with the system; planted key "
                "%s\n",
                recovered, match ? "recovered" : "NOT recovered (bug!)");
    return match ? 0 : 1;
}
