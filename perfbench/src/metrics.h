// Result accumulation and the one-line JSON report of a benchmark run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// One query of a timed phase: a cold instance, a sweep candidate or a
/// service job.
struct QuerySample {
    double latency_s = 0.0;  ///< query start (or submit) to verdict
    bool solved = false;     ///< a correct SAT/UNSAT verdict
    double limit_s = 0.0;    ///< the query's time limit (PAR-2 penalty base)
};

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

/// What one invocation prints: the verdict on correctness, the query
/// counts, the metrics, and human-readable notes printed above the JSON.
struct RunOutput {
    bool correct = true;
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;

    void add(std::string name, std::string unit, double value) {
        metrics.push_back({std::move(name), std::move(unit), value});
    }
    /// Record a correctness failure: the run reports correct=false.
    void wrong(const std::string& why);
    void note(const std::string& line) { notes.push_back(line); }
};

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);

/// The highest nearest-rank percentile of `v` that still has at least
/// ten samples beyond it, i.e. the 11th largest value (the maximum when
/// there are fewer than 11 samples), plus a note in `out` naming that
/// percentile and the sample count.
double tail_with_note(const std::vector<double>& v, const std::string& what,
                      RunOutput* out);

class ReferenceClock;

/// The set-up time of a run: as measured, and scaled to reference speed.
struct SetupTime {
    double raw_s = 0.0;
    double scaled_s = 0.0;
};

/// Fold a timed phase into the end-to-end metrics every workload reports,
/// with every time of the phase scaled to reference speed by `ref` (see
/// reference.h).
/// An unsolved query costs twice its limit, both in par2_s and in the
/// latency distribution.
void add_end_to_end(const std::vector<QuerySample>& samples, double wall_s,
                    const SetupTime& setup, const ReferenceClock& ref,
                    RunOutput* out);

/// Peak resident set size of this process in MiB.
double peak_rss_mib();
/// Current resident set size of this process in MiB.
double current_rss_mib();

/// Print the notes and then the final JSON line to stdout.
void print_report(const RunOutput& out);

}  // namespace perfbench
