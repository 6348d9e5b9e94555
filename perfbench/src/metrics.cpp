#include "metrics.h"

#include <algorithm>
#include <cstdio>

#include "reference.h"
#include "util/mem.h"

namespace perfbench {

void RunOutput::wrong(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "perfbench: INCORRECT: %s\n", why.c_str());
    notes.push_back("incorrect: " + why);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

double tail_value(std::vector<double> v, double* percentile) {
    *percentile = 0.0;
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n < 11) {
        *percentile = 100.0;
        return v.back();
    }
    *percentile = 100.0 * double(n - 10) / double(n);
    return v[n - 11];
}

}  // namespace

double tail_with_note(const std::vector<double>& v, const std::string& what,
                      RunOutput* out) {
    double pct = 0.0;
    const double value = tail_value(v, &pct);
    char line[160];
    std::snprintf(line, sizeof(line), "%s = p%.1f of %zu samples: %.6f s%s",
                  what.c_str(), pct, v.size(), value,
                  v.size() < 11 ? " (fewer than 11 samples: the maximum)" : "");
    out->note(line);
    return value;
}

void add_end_to_end(const std::vector<QuerySample>& samples, double wall_s,
                    const SetupTime& setup, const ReferenceClock& ref,
                    RunOutput* out) {
    // Measured times are scaled to reference speed; the PAR-2 penalty of
    // an unsolved query is a fixed cost and is not.
    const double scale = ref.scale();
    std::vector<double> latency, raw_latency;
    size_t solved = 0;
    double par2 = 0.0;
    for (const QuerySample& s : samples) {
        const double cost = s.solved ? scale * s.latency_s : 2.0 * s.limit_s;
        latency.push_back(cost);
        if (s.solved) raw_latency.push_back(s.latency_s);
        par2 += cost;
        solved += s.solved;
    }
    out->attempted += samples.size();
    out->failed += samples.size() - solved;
    const double n = samples.empty() ? 1.0 : double(samples.size());
    const double qps = wall_s > 0 ? double(solved) / wall_s : 0;
    out->add("throughput_qps", "1/s", qps / scale);
    out->add("latency_p50_s", "s", median(latency));
    out->add("latency_tail_s", "s",
             tail_with_note(latency, "latency_tail_s", out));
    out->add("par2_s", "s", par2 / n);
    out->add("solved_frac", "fraction", double(solved) / n);
    out->add("setup_s", "s", setup.scaled_s);
    out->add("peak_rss_mib", "MiB", peak_rss_mib());

    char line[240];
    std::snprintf(line, sizeof(line),
                  "reference kernel: median %.6f s over %zu samples, so times are "
                  "scaled by %.4f; unscaled: throughput %.4f 1/s, solved-query "
                  "p50 %.6f s, setup %.6f s",
                  ref.median_s(), ref.samples(), scale, qps, median(raw_latency),
                  setup.raw_s);
    out->note(line);
}

double peak_rss_mib() {
    return double(bosphorus::util::peak_rss_bytes()) / (1024.0 * 1024.0);
}

double current_rss_mib() {
    return double(bosphorus::util::current_rss_bytes()) / (1024.0 * 1024.0);
}

void print_report(const RunOutput& out) {
    for (const std::string& line : out.notes) std::printf("# %s\n", line.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                out.correct ? "true" : "false", out.attempted, out.failed);
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

}  // namespace perfbench
