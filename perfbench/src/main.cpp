// perfbench: the repository benchmark (see run.py for how it is built and
// run, and BENCHMARK.json for the metric list).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: simon-cold, sr-cold, sr-sweep, service-mix. Inputs are
// generated from --seed only. --trace 0 measures the end-to-end metrics
// through the public entry point; --trace 1 is a separate run that times
// each layer from outside and checks the traced run against an untraced
// one. The last stdout line is the JSON result; the exit code is 0 iff
// every answer was correct.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "metrics.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload simon-cold|sr-cold|sr-sweep|"
                 "service-mix --seed N --seconds S --trace 0|1\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            args.trace = value == "1";
        } else {
            return usage();
        }
        if (end && *end) return usage();
    }
    if (argc % 2 == 0 || args.seconds <= 0) return usage();

    RunOutput out;
    if (args.workload == "simon-cold" || args.workload == "sr-cold")
        run_cold(args, &out);
    else if (args.workload == "sr-sweep")
        run_sweep(args, &out);
    else if (args.workload == "service-mix")
        run_service(args, &out);
    else
        return usage();
    print_report(out);
    return out.correct ? 0 : 1;
}
