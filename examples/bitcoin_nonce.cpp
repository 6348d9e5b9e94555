// Weakened Bitcoin nonce finding (the paper's Bitcoin-[k] benchmark,
// appendix C): find a 32-bit nonce such that the (round-reduced) SHA-256
// hash of the padded message starts with k zero bits.
//
//   $ ./bitcoin_nonce [k] [rounds]
//
// Encodes the SHA-256 circuit as a quadratic ANF, runs the Engine learning
// loop + a SAT solver, extracts the nonce from the model and re-hashes to
// verify it.
#include <cstdio>
#include <cstdlib>

#include "bosphorus/bosphorus.h"
#include "crypto/sha256.h"
#include "bosphorus/sat_backend.h"

int main(int argc, char** argv) {
    using namespace bosphorus;

    const unsigned k = argc > 1 ? std::atoi(argv[1]) : 8;
    const unsigned rounds = argc > 2 ? std::atoi(argv[2]) : 16;

    Rng rng(99);
    const auto inst = crypto::encode_bitcoin_nonce(k, rounds, rng);
    // The encoder raises rounds below 14 to 14 (the nonce enters at round
    // 12/13); everything below uses the rounds actually encoded.
    std::printf("bitcoin nonce finding: k=%u leading zero bits, "
                "%u SHA-256 rounds (%u requested)\n",
                k, inst.rounds, rounds);
    std::printf("ANF: %zu equations over %zu variables (32 nonce bits)\n",
                inst.polys.size(), inst.num_vars);

    // Learn facts, then hand the processed CNF to the CMS-like solver.
    EngineConfig cfg;
    cfg.xl.m_budget = 20;
    cfg.elimlin.m_budget = 20;
    cfg.sat_conflicts_start = 20'000;
    cfg.time_budget_s = 60.0;
    Engine engine(cfg);
    const Result<Report> run =
        engine.run(Problem::from_anf(inst.polys, inst.num_vars));
    if (!run.ok()) {
        std::printf("engine failed: %s\n", run.status().to_string().c_str());
        return 1;
    }
    const Report& res = *run;

    std::vector<bool> solution;
    if (res.verdict == sat::Result::kSat) {
        solution = res.solution;
        std::printf("solved inside the learning loop (%.2fs)\n", res.seconds);
    } else if (res.verdict == sat::Result::kUnsat) {
        std::printf("UNSAT -- no nonce exists for this prefix\n");
        return 1;
    } else {
        // Back-end solvers are registry specs now: swap "cms" for
        // "minisat", "lingeling" or "dimacs-exec:<cmd>" to race other
        // back ends on the processed CNF.
        const auto so = sat::solve_cnf_with(res.to_cnf(cfg.conv).cnf, "cms",
                                            /*timeout_s=*/300.0);
        if (!so.ok() || so->result != sat::Result::kSat) {
            std::printf("solver did not finish\n");
            return 1;
        }
        solution.resize(inst.num_vars);
        for (size_t v = 0; v < inst.num_vars; ++v)
            solution[v] = so->model[v] == sat::LBool::kTrue;
        std::printf("solved by the back-end solver after preprocessing\n");
    }

    // Extract the nonce and verify by re-hashing.
    const uint32_t nonce = inst.nonce_of(solution);
    std::printf("found nonce 0x%08x; digest[0] = 0x%08x\n", nonce,
                inst.digest(nonce)[0]);
    const bool ok = inst.meets_target(nonce);
    std::printf("verification (top %u bits zero): %s\n", k,
                ok ? "PASS" : "FAIL");
    if (inst.has_witness)
        std::printf("(generator's own witness nonce was 0x%08x -- any valid "
                    "nonce is accepted)\n",
                    inst.nonce);
    return ok ? 0 : 1;
}
