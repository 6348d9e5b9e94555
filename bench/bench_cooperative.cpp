// Cooperative-portfolio benchmark: wall-clock-to-first-verdict of a
// fact-sharing portfolio race vs the same race run isolated, on Table II
// substrates (planted overdetermined quadratic systems standing in for
// cipher encodings, plus round-reduced Simon32/64 key-recovery
// instances).
//
// Checks, enforced with a nonzero exit code:
//  * the cooperative race NEVER contradicts the isolated oracle (a
//    SAT-vs-UNSAT clash is a soundness bug in the fact exchange);
//  * the cooperative race is at least as decisive (isolated decided ->
//    cooperative decided).
// Wall-clock is reported, not enforced: on a loaded CI box timing noise
// must not fail the build, but the JSON carries the per-instance and
// aggregate numbers so regressions are visible in the artifact.
//
// Output is machine-readable JSON, printed to stdout and written to
// BENCH_cooperative.json (override with BENCH_JSON_OUT). Knobs:
// BENCH_PLANTED (4), BENCH_SIMON (2), BENCH_TIMEOUT (20), BENCH_SEED (1),
// BENCH_THREADS (0 = hardware).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bosphorus/bosphorus.h"
#include "cnfgen/generators.h"
#include "crypto/simon.h"
#include "util/rng.h"

using namespace bosphorus;

namespace {

size_t env_or(const char* name, size_t fallback) {
    if (const char* v = std::getenv(name)) return std::strtoul(v, nullptr, 10);
    return fallback;
}

double env_or_d(const char* name, double fallback) {
    if (const char* v = std::getenv(name)) return std::strtod(v, nullptr);
    return fallback;
}

EngineConfig bench_config(uint64_t seed, double timeout_s) {
    EngineConfig cfg;
    cfg.xl.m_budget = 18;
    cfg.elimlin.m_budget = 18;
    cfg.sat_conflicts_start = 5'000;
    cfg.sat_conflicts_max = 50'000;
    cfg.sat_conflicts_step = 5'000;
    cfg.max_iterations = 12;
    cfg.time_budget_s = timeout_s;
    cfg.seed = seed;
    return cfg;
}

const char* verdict_name(sat::Result r) {
    if (r == sat::Result::kSat) return "sat";
    if (r == sat::Result::kUnsat) return "unsat";
    return "unknown";
}

struct Row {
    std::string name;
    sat::Result iso_verdict = sat::Result::kUnknown;
    sat::Result coop_verdict = sat::Result::kUnknown;
    double iso_s = 0.0;
    double coop_s = 0.0;
    uint64_t facts_shared = 0;
    uint64_t facts_suppressed = 0;
    size_t facts_imported = 0;  // summed over the cooperative entries
};

}  // namespace

int main() {
    const size_t n_planted = env_or("BENCH_PLANTED", 4);
    const size_t n_simon = env_or("BENCH_SIMON", 2);
    const double timeout_s = env_or_d("BENCH_TIMEOUT", 20.0);
    const auto seed = static_cast<uint64_t>(env_or("BENCH_SEED", 1));
    const auto n_threads = static_cast<unsigned>(env_or("BENCH_THREADS", 0));
    const char* json_path = std::getenv("BENCH_JSON_OUT");
    if (!json_path) json_path = "BENCH_cooperative.json";

    // The instance set: planted overdetermined quadratic systems (the
    // bench_incremental substrate) and Simon32/64 key recovery with 2
    // known plaintexts at 5 rounds -- small enough for CI, structured
    // enough that the loop learns facts worth sharing.
    std::vector<std::pair<std::string, Problem>> instances;
    for (size_t i = 0; i < n_planted; ++i) {
        Rng rng(seed * 0x9E3779B9ULL + i * 101 + 7);
        cnfgen::PlantedAnf inst =
            cnfgen::planted_quadratic_anf(40, 60, 3, 2, rng);
        instances.emplace_back(
            "planted-40x60#" + std::to_string(i),
            Problem::from_anf(std::move(inst.polys), inst.num_vars));
    }
    for (size_t i = 0; i < n_simon; ++i) {
        const crypto::Simon32 simon(5);
        Rng rng(seed * 7919 + i * 13 + 3);
        auto inst = simon.encode(2, rng);
        instances.emplace_back(
            "simon-[2,5]#" + std::to_string(i),
            Problem::from_anf(std::move(inst.polys), inst.num_vars));
    }

    std::vector<Row> rows;
    bool contradiction = false;
    bool less_decisive = false;
    double iso_total = 0.0, coop_total = 0.0;
    for (size_t i = 0; i < instances.size(); ++i) {
        const EngineConfig cfg = bench_config(seed + i, timeout_s);
        std::vector<PortfolioEntry> entries = default_portfolio(cfg);

        Row row;
        row.name = instances[i].first;

        const Result<PortfolioReport> iso =
            solve_portfolio(instances[i].second, entries, n_threads);
        if (!iso.ok()) {
            std::fprintf(stderr, "isolated race on %s failed: %s\n",
                         row.name.c_str(), iso.status().to_string().c_str());
            return 1;
        }
        row.iso_verdict = iso->report.verdict;
        row.iso_s = iso->seconds;

        for (PortfolioEntry& e : entries) e.config.cooperative = true;
        const Result<PortfolioReport> coop =
            solve_portfolio(instances[i].second, entries, n_threads);
        if (!coop.ok()) {
            std::fprintf(stderr, "cooperative race on %s failed: %s\n",
                         row.name.c_str(), coop.status().to_string().c_str());
            return 1;
        }
        row.coop_verdict = coop->report.verdict;
        row.coop_s = coop->seconds;
        row.facts_shared = coop->facts_shared;
        row.facts_suppressed = coop->facts_suppressed;
        for (const PortfolioOutcome& o : coop->outcomes)
            row.facts_imported += o.facts_imported;

        if (row.iso_verdict != sat::Result::kUnknown &&
            row.coop_verdict != sat::Result::kUnknown &&
            row.iso_verdict != row.coop_verdict) {
            contradiction = true;
            std::fprintf(stderr,
                         "VERDICT DIVERGENCE on %s: isolated=%s "
                         "cooperative=%s\n",
                         row.name.c_str(), verdict_name(row.iso_verdict),
                         verdict_name(row.coop_verdict));
        }
        if (row.iso_verdict != sat::Result::kUnknown &&
            row.coop_verdict == sat::Result::kUnknown) {
            less_decisive = true;
            std::fprintf(stderr,
                         "cooperative race lost decisiveness on %s\n",
                         row.name.c_str());
        }
        iso_total += row.iso_s;
        coop_total += row.coop_s;
        rows.push_back(std::move(row));
    }

    std::string body;
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        char line[512];
        std::snprintf(
            line, sizeof(line),
            "    {\"name\": \"%s\", \"isolated\": {\"verdict\": \"%s\", "
            "\"seconds\": %.4f}, \"cooperative\": {\"verdict\": \"%s\", "
            "\"seconds\": %.4f, \"facts_shared\": %llu, "
            "\"facts_suppressed\": %llu, \"facts_imported\": %zu}}%s\n",
            r.name.c_str(), verdict_name(r.iso_verdict), r.iso_s,
            verdict_name(r.coop_verdict), r.coop_s,
            static_cast<unsigned long long>(r.facts_shared),
            static_cast<unsigned long long>(r.facts_suppressed),
            r.facts_imported, i + 1 < rows.size() ? "," : "");
        body += line;
    }

    char head[1024];
    std::snprintf(
        head, sizeof(head),
        "{\n"
        "  \"bench\": \"cooperative\",\n"
        "  \"instances\": %zu,\n"
        "  \"seed\": %llu,\n"
        "  \"threads\": %u,\n"
        "  \"timeout_s\": %.1f,\n"
        "  \"isolated_total_s\": %.4f,\n"
        "  \"cooperative_total_s\": %.4f,\n"
        "  \"cooperative_no_worse\": %s,\n"
        "  \"verdicts_equivalent\": %s,\n"
        "  \"rows\": [\n",
        rows.size(), static_cast<unsigned long long>(seed), n_threads,
        timeout_s, iso_total, coop_total,
        // 10% grace: thread scheduling noise must not read as a loss.
        coop_total <= iso_total * 1.10 ? "true" : "false",
        (!contradiction && !less_decisive) ? "true" : "false");

    const std::string json = std::string(head) + body + "  ]\n}\n";
    std::fputs(json.c_str(), stdout);
    if (std::ofstream out{json_path}) out << json;
    else std::fprintf(stderr, "warning: cannot write %s\n", json_path);

    return (contradiction || less_decisive) ? 1 : 0;
}
