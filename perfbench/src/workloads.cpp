#include "workloads.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "util/timer.h"

namespace perfbench {

using namespace bosphorus;

Fingerprint fingerprint(const Report& r) {
    Fingerprint f;
    f.verdict = r.verdict;
    f.solution = r.solution;
    f.iterations = r.iterations;
    for (const TechniqueTally& t : r.techniques)
        f.tallies.emplace_back(t.steps, t.facts);
    return f;
}

bool run_untraced_copy(const std::function<std::vector<PlainQuery>()>& child,
                       std::vector<PlainQuery>* queries) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return false;
    }
    if (pid == 0) {
        close(fds[0]);
        std::ostringstream text;
        for (const PlainQuery& q : child()) {
            text << q.group << ' ' << q.ok << ' ' << std::setprecision(17) << q.wall_s << ' '
                 << int(q.fp.verdict) << ' ' << q.fp.iterations << ' '
                 << q.fp.tallies.size();
            for (const auto& [steps, facts] : q.fp.tallies)
                text << ' ' << steps << ' ' << facts;
            text << " -";  // the solution bits follow the dash
            for (const bool b : q.fp.solution) text << (b ? '1' : '0');
            text << '\n';
        }
        const std::string data = text.str();
        for (size_t off = 0; off < data.size();) {
            const ssize_t n = write(fds[1], data.data() + off, data.size() - off);
            if (n <= 0) _exit(1);
            off += size_t(n);
        }
        _exit(0);
    }
    close(fds[1]);
    std::string data;
    char buf[1 << 16];
    for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) data.append(buf, size_t(n));
    close(fds[0]);
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return false;

    std::istringstream text(data);
    queries->clear();
    for (std::string line; std::getline(text, line);) {
        std::istringstream in(line);
        PlainQuery q;
        int verdict = 0;
        size_t n_tallies = 0;
        in >> q.group >> q.ok >> q.wall_s >> verdict >> q.fp.iterations >> n_tallies;
        q.fp.verdict = sat::Result(verdict);
        q.fp.tallies.resize(n_tallies);
        for (auto& [steps, facts] : q.fp.tallies) in >> steps >> facts;
        std::string bits;
        in >> bits;
        if (!in || bits.empty() || bits[0] != '-') return false;
        for (size_t i = 1; i < bits.size(); ++i) q.fp.solution.push_back(bits[i] == '1');
        queries->push_back(std::move(q));
    }
    return true;
}

void check_same(const Fingerprint& untraced, const Fingerprint& traced,
                size_t i, RunOutput* out) {
    if (untraced == traced) return;
    char why[160];
    std::snprintf(why, sizeof(why),
                  "query %zu: traced run differs from untraced (verdict %d/%d, "
                  "iterations %zu/%zu)",
                  i, int(untraced.verdict), int(traced.verdict),
                  untraced.iterations, traced.iterations);
    out->wrong(why);
}

bool satisfies(const std::vector<anf::Polynomial>& polys,
               const std::vector<bool>& solution) {
    for (const anf::Polynomial& p : polys)
        if (p.evaluate(solution)) return false;
    return true;
}

SetupTime time_setup(ReferenceClock& ref, const std::function<void()>& fn) {
    constexpr int kSamplesPerRep = 3;
    const size_t first = ref.samples();
    std::vector<double> times;
    for (int r = 0; r < kSetupReps; ++r) {
        const Timer timer;
        fn();
        times.push_back(timer.seconds());
        for (int i = 0; i < kSamplesPerRep; ++i) ref.sample();
    }
    const double raw = median(times);
    return {raw, raw * ref.scale_since(first)};
}

crypto::SmallScaleAes::Instance unique_key_sr(Rng& rng) {
    const crypto::SmallScaleAes aes(kSrParams);
    const size_t words = aes.num_words();
    const unsigned e = kSrParams.e;
    for (;;) {
        crypto::SmallScaleAes::Instance inst = aes.random_instance(rng);
        size_t matches = 0;
        std::vector<uint8_t> key(words);
        for (uint32_t k = 0; k < (1u << (words * e)) && matches < 2; ++k) {
            for (size_t w = 0; w < words; ++w)
                key[w] = uint8_t((k >> (w * e)) & ((1u << e) - 1));
            matches += aes.encrypt(inst.plaintext, key) == inst.ciphertext;
        }
        if (matches == 1) return inst;
    }
}

KeySweep::KeySweep(uint64_t seed) {
    Rng rng(seed * 1000003ULL + 17);
    inst = unique_key_sr(rng);
    for (unsigned b = 0; b < kSweepBits; ++b)
        planted |= uint32_t(inst.witness[b]) << b;
    order.resize(1u << kSweepBits);
    for (uint32_t c = 0; c < order.size(); ++c) order[c] = c;
    Rng shuffle_rng(seed * 0x9E3779B97F4A7C15ULL + 11);
    shuffle_rng.shuffle(order);
    std::iter_swap(std::find(order.begin(), order.end(), planted),
                   order.begin() + seed % kPlantedWithin);
}

std::vector<KeySweep> key_sweeps(uint64_t seed) {
    std::vector<KeySweep> sweeps;
    for (size_t j = 0; j < kSweepInstances; ++j)
        sweeps.emplace_back(seed * kSweepInstances + j);
    return sweeps;
}

AssumptionSet KeySweep::assumptions(size_t i) const {
    AssumptionSet set;
    const uint32_t prefix = order[i % order.size()];
    for (unsigned b = 0; b < kSweepBits; ++b)
        set.emplace_back(static_cast<anf::Var>(b), (prefix >> b) & 1);
    return set;
}

bool KeySweep::judge(size_t i, const Fingerprint& fp, RunOutput* out) const {
    const bool is_planted = order[i % order.size()] == planted;
    const std::string where = "candidate " + std::to_string(i);
    if (fp.verdict == sat::Result::kSat) {
        if (!is_planted)
            out->wrong(where + ": SAT on a wrong key");
        else if (!satisfies(inst.polys, fp.solution))
            out->wrong(where + ": model fails the ANF");
        else if (!std::equal(inst.witness.begin(),
                             inst.witness.begin() + kKeyBits,
                             fp.solution.begin()))
            out->wrong(where + ": model is not the planted key");
        else
            return true;
        return false;
    }
    if (fp.verdict == sat::Result::kUnsat) {
        if (is_planted) out->wrong(where + ": UNSAT on the planted key");
        return !is_planted;
    }
    return false;
}

EngineConfig engine_config(double limit_s) {
    EngineConfig cfg;
    cfg.xl.m_budget = 20;
    cfg.elimlin.m_budget = 20;
    cfg.max_iterations = 16;
    cfg.time_budget_s = limit_s;
    return cfg;
}

void add_per_layer(const LayerTotals& t, RunOutput* out) {
    const double n = t.queries ? double(t.queries) : 1.0;
    double steps_s = 0.0;
    for (const char* name : {"xl", "elimlin", "sat"}) {
        const std::string key = std::string("loop.") + name;
        StepTally s;
        if (auto it = t.loop.find(name); it != t.loop.end()) s = it->second;
        for (const auto& [tname, tally] : t.reported) {
            if (tname != name) continue;
            s.steps += tally.first;
            s.fresh += tally.second;
        }
        steps_s += s.step_s;
        out->add(key + ".step_s", "s/query", s.step_s / n);
        out->add(key + ".steps", "count/query", double(s.steps) / n);
        out->add(key + ".facts_fresh", "count/query", double(s.fresh) / n);
        out->add(key + ".fresh_ratio", "fraction",
                 s.seen ? double(s.fresh) / double(s.seen) : 0.0);
        if (key == "loop.sat") out->add("loop.sat.bind_s", "s/query", s.bind_s / n);
    }
    const double other = t.loop.empty() ? 0.0 : t.loop_report_s - steps_s;
    out->add("loop.other_s", "s/query", other / n);
    out->add("loop.iterations", "count/query", double(t.iterations) / n);
    out->add("loop.decided_frac", "fraction", double(t.decided_in_loop) / n);

    out->add("session.construct_s", "s", t.construct_s);
    out->add("session.push_pop_s", "s/query", t.push_pop_s / n);
    out->add("session.rss_growth_mib", "MiB", t.rss_growth_mib);

    out->add("solver.vivify_passes", "count/query", double(t.solver.vivify_passes) / n);
    out->add("solver.vivified_clauses", "count/query",
             double(t.solver.vivified_clauses) / n);
    out->add("solver.db_reductions", "count/query", double(t.solver.db_reductions) / n);
    out->add("solver.reconf_decisions", "count/query",
             double(t.solver.reconf_decisions) / n);

    out->add("backend.calls", "count/query", double(t.backend.calls) / n);
    out->add("backend.load_s", "s/query", t.backend.load_s / n);
    out->add("backend.solve_s", "s/query", t.backend.solve_s / n);
    out->add("backend.conflicts", "count/query", double(t.backend.conflicts) / n);
    out->add("backend.propagations", "count/query",
             double(t.backend.propagations) / n);

    const double sq = t.store_queries ? double(t.store_queries) : 1.0;
    const uint64_t products = t.store.memo_hits + t.store.memo_misses;
    out->add("store.entries_added", "count/query", double(t.store.store_entries) / sq);
    out->add("store.mul_memo_hit_ratio", "fraction",
             products ? double(t.store.memo_hits) / double(products) : 0.0);

    out->add("service.queue_wait_p50_s", "s", median(t.queue_wait_s));
    out->add("service.queue_wait_tail_s", "s",
             t.queue_wait_s.empty()
                 ? 0.0
                 : tail_with_note(t.queue_wait_s, "service.queue_wait_tail_s", out));
    out->add("service.run_p50_s", "s", median(t.run_s));
    out->add("service.run_tail_s", "s",
             t.run_s.empty() ? 0.0 : tail_with_note(t.run_s, "service.run_tail_s", out));
    out->add("service.rejected", "count", double(t.rejected));
    out->add("service.expired", "count", double(t.expired));

    out->add("trace.overhead_frac", "fraction",
             t.untraced_wall_s > 0 ? t.traced_wall_s / t.untraced_wall_s - 1.0 : 0.0);
    const double accounted =
        t.traced_wall_s > 0 ? t.accounted_s / t.traced_wall_s : 0.0;
    out->add("trace.accounted_frac", "fraction", accounted);
    char line[120];
    std::snprintf(line, sizeof(line),
                  "layer times account for %.1f%% of the traced wall time "
                  "over %zu queries",
                  100.0 * accounted, t.queries);
    out->note(line);
}

}  // namespace perfbench
