// bosphorus -- command-line front-end, mirroring the original tool's usage:
//
//   bosphorus --anf problem.anf [--cnf out.cnf] [--anfout out.anf] [opts]
//   bosphorus --cnfin problem.cnf [--cnf out.cnf] [opts]
//   bosphorus --solve            run the full pipeline and report SAT/UNSAT
//
// Options mirror the paper's parameters: -M, -D (xl degree), -K (karnaugh),
// -L (xor cut), --lp (clause cut), -C (conflict budget start), --maxiters,
// --timeout, --seed, -v.
//
// Built on the library facade: the input file loads into a
// bosphorus::Problem, the learning loop is a bosphorus::Engine, and all
// failures arrive as structured Status values instead of exceptions.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include <vector>

#include "anf/anf_parser.h"
#include "bosphorus/bosphorus.h"
#include "runtime/thread_pool.h"
#include "sat/dimacs.h"
#include "sat/inprocess/profiles.h"
#include "sat/solve_cnf.h"
#include "util/fault.h"
#include "util/timer.h"

namespace {

using namespace bosphorus;

void usage() {
    std::puts(
        "bosphorus: bridging ANF and CNF solvers (DATE'19 reproduction)\n"
        "\n"
        "usage:\n"
        "  bosphorus --anf FILE   [options]   process an ANF problem\n"
        "  bosphorus --cnfin FILE [options]   process a CNF problem\n"
        "  bosphorus --stream-preprocess IN OUT [options]\n"
        "                  out-of-core CNF preprocessing: stream IN through\n"
        "                  XOR recovery + simplification into OUT under a\n"
        "                  hard memory budget (IN may far exceed RAM)\n"
        "\n"
        "streaming options:\n"
        "  --memory-budget N[K|M|G]  pipeline memory target (default 64M)\n"
        "  --stream-xor-len N   max XOR length recovered per window (4)\n"
        "  --stream-rounds N    fact-discovery scans before the window\n"
        "                       pass (2)\n"
        "  --stream-no-bve      disable windowed variable elimination\n"
        "                       (output then preserves the model set)\n"
        "  --stream-plain-cnf   expand XORs to clauses instead of \"x\"\n"
        "                       lines (output fit for any DIMACS solver)\n"
        "\n"
        "output:\n"
        "  --cnf FILE      write processed CNF (with learnt facts)\n"
        "  --anfout FILE   write processed ANF\n"
        "  --solve         run a back-end SAT solver on the processed CNF\n"
        "  --solver SPEC   back-end from the registry: minisat | lingeling\n"
        "                  | cms (default) | dimacs-exec:CMD | any\n"
        "                  registered name\n"
        "  --solver-cmd CMD  shorthand for --solver dimacs-exec:CMD (run\n"
        "                  an external DIMACS solver binary; the CNF file\n"
        "                  path is appended as its last argument)\n"
        "  --loop-solver SPEC  back end of the in-loop conflict-bounded\n"
        "                  SAT step (default: the built-in native solver;\n"
        "                  not combinable with --sat-* / --no-inprocess,\n"
        "                  which tune the native solver only)\n"
        "  --list-solvers  print the registered back-ends and exit\n"
        "\n"
        "concurrency:\n"
        "  --batch FILE... process many instances across a thread pool\n"
        "                  (*.cnf loads as CNF, anything else as ANF)\n"
        "  --portfolio     race 4 technique configs on one instance;\n"
        "                  first decisive finisher cancels the rest\n"
        "  --cooperative   portfolio/sweep workers share learnt facts\n"
        "                  through a lock-free pool instead of racing\n"
        "                  isolated (verdicts stay identical; per-run\n"
        "                  determinism is relaxed)\n"
        "  --threads N     worker threads (default: hardware concurrency;\n"
        "                  requests beyond the core count are clamped)\n"
        "\n"
        "incremental solving:\n"
        "  --assume FILE   solve under the assumptions in FILE (signed\n"
        "                  1-based DIMACS-style literals: '5' fixes x5=1,\n"
        "                  '-5' fixes x5=0; '0' terminators optional)\n"
        "  --sweep FILE    one assumption set per line; sweeps all of them\n"
        "                  over ONE shared simplified base system through\n"
        "                  warm-started incremental Sessions\n"
        "\n"
        "parameters (paper section IV defaults):\n"
        "  -M N            XL/ElimLin sample budget exponent (30)\n"
        "  -D N            XL expansion degree (1)\n"
        "  -K N            Karnaugh variable limit (8, at most 20)\n"
        "  -L N            XOR cutting length (5, from 3 to 24)\n"
        "  --lp N          clause cutting length L' (5)\n"
        "  -C N            SAT conflict budget start (10000)\n"
        "  --maxiters N    max outer-loop iterations (64)\n"
        "  --timeout S     Bosphorus time budget in seconds (1000)\n"
        "  --no-xl / --no-el / --no-sat   disable a learning step\n"
        "  --sat-profile P  native in-loop solver profile: auto (default,\n"
        "                  feature-driven, re-evaluated per solve) | fixed\n"
        "                  | balanced | crypto-xor | agile-restart |\n"
        "                  heavy-tail\n"
        "  --sat-restart-base N  Luby restart unit in conflicts (100);\n"
        "                  implies --sat-profile fixed unless a profile is\n"
        "                  given explicitly\n"
        "  --sat-db-floor N      learnt-DB local-tier cap floor (1000);\n"
        "                  same implied-fixed rule\n"
        "  --no-inprocess  disable native-solver in-processing entirely\n"
        "                  (vivification, tiered learnt DB, profiles)\n"
        "  --gb            enable the Groebner (Buchberger/F4) step\n"
        "  --seed N        RNG seed (1)\n"
        "  --fault-plan P  arm deterministic fault injection, e.g.\n"
        "                  'backend-crash=0.3,seed=7' (testing; also via\n"
        "                  the BOSPHORUS_FAULT_PLAN environment variable)\n"
        "  -v N            verbosity (0)\n"
        "  --version       print the library version and exit\n");
}

int fail(const Status& status) {
    std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
    return 2;
}

/// Parse "64M" / "512K" / "2G" / "1048576" into bytes. Throws
/// std::invalid_argument (caught by main's backstop) on malformed input.
uint64_t parse_bytes(const std::string& text) {
    size_t pos = 0;
    const unsigned long long n = std::stoull(text, &pos);
    uint64_t mult = 1;
    if (pos < text.size()) {
        const char suffix = static_cast<char>(std::toupper(text[pos]));
        if (suffix == 'K') mult = 1ull << 10;
        else if (suffix == 'M') mult = 1ull << 20;
        else if (suffix == 'G') mult = 1ull << 30;
        else throw std::invalid_argument("bad size suffix in '" + text + "'");
        if (pos + 1 < text.size() &&
            !(pos + 2 == text.size() && std::toupper(text[pos + 1]) == 'B'))
            throw std::invalid_argument("bad size '" + text + "'");
    }
    return n * mult;
}

/// `--stream-preprocess IN OUT`: run the out-of-core pipeline and report
/// its counters; exit 20 if preprocessing refuted the formula.
int run_stream_preprocess(const std::string& in_path,
                          const std::string& out_path,
                          const StreamPreprocessConfig& cfg, int verbosity) {
    StreamPreprocessConfig run_cfg = cfg;
    if (verbosity > 0) {
        run_cfg.on_progress = [](const StreamProgress& p) {
            const char* phase = p.phase == StreamPhase::kDiscover ? "discover"
                                : p.phase == StreamPhase::kCount  ? "count"
                                                                  : "window";
            std::fprintf(stderr,
                         "c stream: %s round=%llu %llu/%llu bytes, "
                         "%llu clauses, %llu windows\r",
                         phase, static_cast<unsigned long long>(p.round),
                         static_cast<unsigned long long>(p.bytes_read),
                         static_cast<unsigned long long>(p.bytes_total),
                         static_cast<unsigned long long>(p.clauses_seen),
                         static_cast<unsigned long long>(p.windows_flushed));
        };
    }
    StreamPreprocessor pp(run_cfg);
    const Result<StreamPreprocessStats> stats = pp.run(in_path, out_path);
    if (verbosity > 0) std::fputc('\n', stderr);
    if (!stats.ok()) return fail(stats.status());
    std::printf("%s\n", stream_summary_line(*stats).c_str());
    if (stats->verdict == sat::Result::kUnsat) {
        std::puts("s UNSATISFIABLE");
        return 20;
    }
    return 0;
}

const char* verdict_name(sat::Result r) {
    if (r == sat::Result::kSat) return "SAT";
    if (r == sat::Result::kUnsat) return "UNSAT";
    return "UNKNOWN";
}

void print_model(const std::vector<bool>& solution, size_t num_vars) {
    std::printf("v");
    for (size_t v = 0; v < num_vars && v < solution.size(); ++v)
        std::printf(" %s%zu", solution[v] ? "" : "-", v + 1);
    std::printf(" 0\n");
}

int run(int argc, char** argv);

}  // namespace

int main(int argc, char** argv) {
    // Library failures arrive as Status values; this backstop catches what
    // does not (std::stoul on malformed numeric options, bad_alloc, ...).
    try {
        return run(argc, argv);
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        return 2;
    }
}

namespace {

/// Everything the plain and portfolio paths share downstream of a Report:
/// write --anfout/--cnf, report the engine's own verdict, optionally run
/// the back-end solver (--solve) on the processed CNF.
struct OutputOptions {
    std::string cnf_out;
    std::string anf_out;
    bool solve_after = false;
    sat::SolverSpec solver;
    core::Anf2CnfConfig conv;  ///< -K / -L, for the processed CNF
};
int finish_run(const Report& res, const OutputOptions& out_opt,
               size_t problem_vars);

int run_batch(const std::vector<std::string>& files, const EngineConfig& opt,
              unsigned n_threads);
int run_portfolio(const Problem& problem, const EngineConfig& opt,
                  unsigned n_threads, size_t problem_vars,
                  const OutputOptions& out_opt);
int run_assume(const Problem& problem, const EngineConfig& opt,
               const std::string& assume_file, size_t problem_vars,
               const OutputOptions& out_opt);
int run_sweep(const Problem& problem, const EngineConfig& opt,
              const std::string& sweep_file, unsigned n_threads);

int run(int argc, char** argv) {
    std::string anf_in, cnf_in, cnf_out, anf_out;
    std::string solver_name = sat::kDefaultSolverName;
    std::string assume_file, sweep_file;
    std::string stream_in, stream_out;
    StreamPreprocessConfig stream_cfg;
    bool solve_after = false;
    bool batch_mode = false;
    bool portfolio_mode = false;
    unsigned n_threads = 0;  // 0 = hardware concurrency
    std::vector<std::string> batch_files;
    EngineConfig opt;
    bool sat_profile_explicit = false;
    bool sat_knob_explicit = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--anf") anf_in = next();
        else if (a == "--stream-preprocess") {
            stream_in = next();
            stream_out = next();
        }
        else if (a == "--memory-budget")
            stream_cfg.memory_budget_bytes = parse_bytes(next());
        else if (a == "--stream-xor-len")
            stream_cfg.xor_max_len = std::stoull(next());
        else if (a == "--stream-rounds")
            stream_cfg.discovery_rounds = std::stoi(next());
        else if (a == "--stream-no-bve") stream_cfg.window_bve = false;
        else if (a == "--stream-plain-cnf") stream_cfg.emit_xor_lines = false;
        else if (a == "--version") {
            std::printf("bosphorus %s (DATE'19 reproduction)\n", version());
            return 0;
        }
        else if (a == "--assume") assume_file = next();
        else if (a == "--sweep") sweep_file = next();
        else if (a == "--batch") batch_mode = true;
        else if (a == "--portfolio") portfolio_mode = true;
        else if (a == "--cooperative") opt.cooperative = true;
        else if (a == "--threads") n_threads = std::stoul(next());
        else if (batch_mode && !a.empty() && a[0] != '-')
            batch_files.push_back(a);
        else if (a == "--cnfin") cnf_in = next();
        else if (a == "--cnf") cnf_out = next();
        else if (a == "--anfout") anf_out = next();
        else if (a == "--solve") solve_after = true;
        else if (a == "--solver") solver_name = next();
        else if (a == "--solver-cmd") solver_name = "dimacs-exec:" + next();
        else if (a == "--loop-solver") opt.sat_backend = next();
        else if (a == "--list-solvers") {
            for (const auto& info : sat::BackendRegistry::global().list()) {
                std::printf("%-12s %s%s\n", info.name.c_str(),
                            info.description.c_str(),
                            info.builtin ? "" : " (user-registered)");
            }
            return 0;
        }
        else if (a == "-M") {
            const unsigned m = std::stoul(next());
            opt.xl.m_budget = m;
            opt.elimlin.m_budget = m;
        } else if (a == "-D") opt.xl.degree = std::stoul(next());
        else if (a == "-K") opt.conv.karnaugh_k = std::stoul(next());
        else if (a == "-L") opt.conv.xor_cut = std::stoul(next());
        else if (a == "--lp") opt.clause_cut = std::stoul(next());
        else if (a == "-C") opt.sat_conflicts_start = std::stoll(next());
        else if (a == "--maxiters") opt.max_iterations = std::stoul(next());
        else if (a == "--timeout") opt.time_budget_s = std::stod(next());
        else if (a == "--gb") opt.use_groebner = true;
        else if (a == "--sat-profile") {
            opt.sat_profile = next();
            sat::inprocess::ProfileId pid;
            if (!sat::inprocess::profile_from_name(opt.sat_profile, pid)) {
                std::fprintf(stderr, "unknown --sat-profile: %s\n",
                             opt.sat_profile.c_str());
                usage();
                return 2;
            }
            sat_profile_explicit = true;
        }
        else if (a == "--sat-restart-base") {
            opt.sat_restart_base = std::stoi(next());
            sat_knob_explicit = true;
        }
        else if (a == "--sat-db-floor") {
            opt.sat_learnt_db_floor = std::stoll(next());
            sat_knob_explicit = true;
        }
        else if (a == "--no-inprocess") opt.sat_inprocess = false;
        else if (a == "--no-xl") opt.use_xl = false;
        else if (a == "--no-el") opt.use_elimlin = false;
        else if (a == "--no-sat") opt.use_sat = false;
        else if (a == "--seed") opt.seed = std::stoull(next());
        else if (a == "--fault-plan") {
            const Status fs = fault::FaultInjector::global().arm(next());
            if (!fs.ok()) return fail(fs);
        }
        else if (a == "-v") opt.verbosity = std::stoi(next());
        else if (a == "-h" || a == "--help") { usage(); return 0; }
        else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            usage();
            return 2;
        }
    }
    // The native-solver knobs never reach a registry backend: refuse the
    // combination instead of silently dropping them.
    if (!opt.sat_backend.empty() &&
        (sat_profile_explicit || sat_knob_explicit || !opt.sat_inprocess)) {
        std::fprintf(stderr,
                     "--loop-solver does not support --sat-profile, "
                     "--sat-restart-base, --sat-db-floor or --no-inprocess "
                     "(they tune the built-in native solver only)\n");
        return 2;
    }
    // Explicit solver knobs are dead weight while a profile overrides
    // them: --sat-restart-base / --sat-db-floor imply --sat-profile fixed
    // unless a profile was named explicitly.
    if (sat_knob_explicit && !sat_profile_explicit) opt.sat_profile = "fixed";
    if (batch_mode) {
        if (batch_files.empty()) {
            std::fprintf(stderr, "--batch needs at least one input file\n");
            return 2;
        }
        // Refuse flag combinations batch mode would otherwise silently
        // drop (per-instance outputs / back-end solving / portfolio).
        if (solve_after || portfolio_mode || !cnf_out.empty() ||
            !anf_out.empty() || !assume_file.empty() || !sweep_file.empty()) {
            std::fprintf(stderr,
                         "--batch does not support --solve, --portfolio, "
                         "--cnf, --anfout, --assume or --sweep\n");
            return 2;
        }
        return run_batch(batch_files, opt, n_threads);
    }
    if (!stream_in.empty()) {
        if (!anf_in.empty() || !cnf_in.empty() || solve_after ||
            portfolio_mode || !cnf_out.empty() || !anf_out.empty() ||
            !assume_file.empty() || !sweep_file.empty()) {
            std::fprintf(stderr,
                         "--stream-preprocess is a standalone mode (only "
                         "--memory-budget / --stream-* / -v apply)\n");
            return 2;
        }
        return run_stream_preprocess(stream_in, stream_out, stream_cfg,
                                     opt.verbosity);
    }
    if (anf_in.empty() == cnf_in.empty()) {
        usage();
        return 2;
    }

    const sat::SolverSpec solver_spec{solver_name};
    // Validate the back-end (and --loop-solver) up front: a typo should
    // fail before any solving starts, not after the engine ran.
    {
        auto probe = sat::BackendRegistry::global().create(solver_spec);
        if (!probe.ok()) return fail(probe.status());
    }
    if (!opt.sat_backend.empty()) {
        auto probe = sat::BackendRegistry::global().create(
            sat::SolverSpec{opt.sat_backend});
        if (!probe.ok()) return fail(probe.status());
    }
    if (const std::string bad = opt.conv.check(); !bad.empty())
        return fail(Status::invalid_argument(bad));

    Result<Problem> problem = anf_in.empty()
                                  ? Problem::from_cnf_file(cnf_in)
                                  : Problem::from_anf_file(anf_in);
    if (!problem.ok()) return fail(problem.status());
    const size_t problem_vars = problem->num_vars();

    OutputOptions out_opt;
    out_opt.cnf_out = cnf_out;
    out_opt.anf_out = anf_out;
    out_opt.solve_after = solve_after;
    out_opt.solver = solver_spec;
    out_opt.conv = opt.conv;

    if (!sweep_file.empty()) {
        if (portfolio_mode || solve_after || !cnf_out.empty() ||
            !anf_out.empty() || !assume_file.empty()) {
            std::fprintf(stderr,
                         "--sweep does not support --solve, --portfolio, "
                         "--cnf, --anfout or --assume\n");
            return 2;
        }
        return run_sweep(*problem, opt, sweep_file, n_threads);
    }
    if (!assume_file.empty()) {
        if (portfolio_mode) {
            std::fprintf(stderr, "--assume does not support --portfolio\n");
            return 2;
        }
        return run_assume(*problem, opt, assume_file, problem_vars, out_opt);
    }

    if (portfolio_mode)
        return run_portfolio(*problem, opt, n_threads, problem_vars, out_opt);

    Engine engine(opt);
    const Result<Report> run = engine.run(*problem);
    if (!run.ok()) return fail(run.status());
    const Report& res = *run;

    std::fprintf(stderr, "c engine: %zu iterations, %.2fs; facts:",
                 res.iterations, res.seconds);
    for (const auto& t : res.techniques)
        std::fprintf(stderr, " %s=%zu", t.name.c_str(), t.facts);
    std::fprintf(stderr, "; vars fixed=%zu replaced=%zu\n", res.vars_fixed,
                 res.vars_replaced);

    return finish_run(res, out_opt, problem_vars);
}

int finish_run(const Report& res, const OutputOptions& out_opt,
               size_t problem_vars) {
    if (!out_opt.anf_out.empty()) {
        std::ofstream out(out_opt.anf_out);
        if (!out)
            return fail(Status::io_error("cannot write " + out_opt.anf_out));
        anf::write_system(out, res.processed_anf);
    }
    // The processed CNF is converted only when something reads it.
    const bool run_backend =
        out_opt.solve_after && res.verdict == sat::Result::kUnknown;
    core::Anf2CnfResult cnf;
    if (!out_opt.cnf_out.empty() || run_backend)
        cnf = res.to_cnf(out_opt.conv);
    if (!out_opt.cnf_out.empty()) {
        std::ofstream out(out_opt.cnf_out);
        if (!out)
            return fail(Status::io_error("cannot write " + out_opt.cnf_out));
        sat::write_dimacs(out, cnf.cnf);
    }

    if (res.verdict == sat::Result::kUnsat) {
        std::puts("s UNSATISFIABLE");
        return 20;
    }
    if (res.verdict == sat::Result::kSat) {
        std::puts("s SATISFIABLE");
        print_model(res.solution, problem_vars);
        return 10;
    }

    if (run_backend) {
        const Result<sat::CnfSolveOutcome> so =
            sat::solve_cnf_with(cnf.cnf, out_opt.solver);
        if (!so.ok()) return fail(so.status());
        if (so->result == sat::Result::kUnsat) {
            std::puts("s UNSATISFIABLE");
            return 20;
        }
        if (so->result == sat::Result::kSat) {
            std::puts("s SATISFIABLE");
            std::vector<bool> solution(so->model.size());
            for (size_t v = 0; v < so->model.size(); ++v)
                solution[v] = so->model[v] == sat::LBool::kTrue;
            print_model(solution, problem_vars);
            return 10;
        }
        std::puts("s UNKNOWN");
        return 0;
    }

    std::puts("s UNKNOWN");
    return 0;
}

/// `--batch`: every input file becomes a Problem (*.cnf/*.dimacs load as
/// DIMACS, everything else as ANF text) and the whole set runs through
/// BatchEngine across the thread pool. Per-file verdict lines go to
/// stdout; a machine-greppable summary closes the run.
int run_batch(const std::vector<std::string>& files, const EngineConfig& opt,
              unsigned n_threads) {
    auto is_cnf = [](const std::string& f) {
        return f.ends_with(".cnf") || f.ends_with(".dimacs");
    };

    std::vector<Problem> problems;
    problems.reserve(files.size());
    for (const auto& f : files) {
        Result<Problem> p =
            is_cnf(f) ? Problem::from_cnf_file(f) : Problem::from_anf_file(f);
        if (!p.ok()) return fail(p.status());
        problems.push_back(std::move(*p));
    }

    const Timer timer;
    BatchEngine batch(opt);
    const std::vector<Result<Report>> results =
        batch.solve_all(problems, n_threads);

    size_t n_sat = 0, n_unsat = 0, n_unknown = 0, n_error = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        if (!r.ok()) {
            ++n_error;
            std::printf("i %zu %s ERROR %s\n", i, files[i].c_str(),
                        r.status().to_string().c_str());
            continue;
        }
        if (r->verdict == sat::Result::kSat) ++n_sat;
        else if (r->verdict == sat::Result::kUnsat) ++n_unsat;
        else ++n_unknown;
        std::printf("i %zu %s %s iters=%zu facts=%zu %.2fs\n", i,
                    files[i].c_str(), verdict_name(r->verdict), r->iterations,
                    r->total_facts(), r->seconds);
    }
    std::printf(
        "c batch: %zu instances, %u threads, sat=%zu unsat=%zu unknown=%zu "
        "error=%zu, %.2fs wall\n",
        results.size(), BatchEngine::threads_for(results.size(), n_threads),
        n_sat, n_unsat, n_unknown, n_error, timer.seconds());
    return n_error == 0 ? 0 : 2;
}

/// Parse one whitespace-separated run of signed 1-based DIMACS-style
/// literals ("5" = x5 := 1, "-5" = x5 := 0; "0" terminators and blank
/// tokens ignored) into (var, value) assumptions.
Result<AssumptionSet> parse_assumptions(const std::string& text,
                                        const std::string& where) {
    AssumptionSet set;
    std::istringstream in(text);
    long long lit = 0;
    while (in >> lit) {
        if (lit == 0) continue;
        const long long v = lit > 0 ? lit : -lit;
        if (v - 1 > static_cast<long long>(
                        std::numeric_limits<anf::Var>::max())) {
            return Status::parse_error(where + ": literal " +
                                       std::to_string(lit) +
                                       " exceeds the variable index range");
        }
        set.emplace_back(static_cast<anf::Var>(v - 1), lit > 0);
    }
    if (!in.eof())
        return Status::parse_error(where + ": expected signed integer "
                                           "literals (e.g. '5 -7 0')");
    return set;
}

/// `--assume FILE`: the whole file is one assumption set, applied to the
/// problem through a Session before a single solve; downstream output
/// handling (--cnf/--anfout/--solve, verdict, exit code) matches a plain
/// run exactly.
int run_assume(const Problem& problem, const EngineConfig& opt,
               const std::string& assume_file, size_t problem_vars,
               const OutputOptions& out_opt) {
    std::ifstream in(assume_file);
    if (!in) return fail(Status::io_error("cannot read " + assume_file));
    std::stringstream buffer;
    buffer << in.rdbuf();
    const Result<AssumptionSet> set =
        parse_assumptions(buffer.str(), assume_file);
    if (!set.ok()) return fail(set.status());

    Session session(problem, opt);
    for (const auto& [var, value] : *set) {
        const Status s = session.assume(var, value);
        if (!s.ok()) return fail(s);
    }
    const Result<Report> run = session.solve();
    if (!run.ok()) return fail(run.status());

    std::fprintf(stderr,
                 "c session: %zu assumptions, %zu iterations, %.2fs; "
                 "vars fixed=%zu replaced=%zu\n",
                 set->size(), run->iterations, run->seconds, run->vars_fixed,
                 run->vars_replaced);
    return finish_run(*run, out_opt, problem_vars);
}

/// `--sweep FILE`: every non-comment line is one assumption set; all of
/// them run through BatchEngine::solve_all_incremental over one shared
/// base system. Per-candidate verdict lines go to stdout; a
/// machine-greppable summary closes the run.
int run_sweep(const Problem& problem, const EngineConfig& opt,
              const std::string& sweep_file, unsigned n_threads) {
    std::ifstream in(sweep_file);
    if (!in) return fail(Status::io_error("cannot read " + sweep_file));

    std::vector<AssumptionSet> candidates;
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos) continue;
        if (line[first] == '#' || line[first] == 'c') continue;
        Result<AssumptionSet> set = parse_assumptions(
            line, sweep_file + " line " + std::to_string(line_no));
        if (!set.ok()) return fail(set.status());
        candidates.push_back(std::move(*set));
    }
    if (candidates.empty()) {
        std::fprintf(stderr, "--sweep: no assumption sets in %s\n",
                     sweep_file.c_str());
        return 2;
    }

    const Timer timer;
    BatchEngine batch(opt);
    const std::vector<Result<Report>> results =
        batch.solve_all_incremental(problem, candidates, n_threads);

    size_t n_sat = 0, n_unsat = 0, n_unknown = 0, n_error = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        if (!r.ok()) {
            ++n_error;
            std::printf("a %zu ERROR %s\n", i, r.status().to_string().c_str());
            continue;
        }
        if (r->verdict == sat::Result::kSat) ++n_sat;
        else if (r->verdict == sat::Result::kUnsat) ++n_unsat;
        else ++n_unknown;
        std::printf("a %zu %s iters=%zu facts=%zu %.3fs", i,
                    verdict_name(r->verdict), r->iterations, r->total_facts(),
                    r->seconds);
        if (r->verdict == sat::Result::kSat) {
            std::printf(" model");
            for (size_t v = 0; v < problem.num_vars() &&
                               v < r->solution.size(); ++v)
                std::printf(" %s%zu", r->solution[v] ? "" : "-", v + 1);
        }
        std::printf("\n");
    }
    std::printf(
        "c sweep: %zu candidates, %u threads, sat=%zu unsat=%zu unknown=%zu "
        "error=%zu, %.2fs wall\n",
        results.size(), BatchEngine::threads_for(results.size(), n_threads),
        n_sat, n_unsat, n_unknown, n_error, timer.seconds());
    return n_error == 0 ? 0 : 2;
}

/// `--portfolio`: race the standard four configurations (see
/// default_portfolio) on one instance; then treat the winner's Report
/// exactly like a plain run's -- --cnf/--anfout/--solve all apply -- so
/// scripts cannot tell it from a plain run.
int run_portfolio(const Problem& problem, const EngineConfig& opt,
                  unsigned n_threads, size_t problem_vars,
                  const OutputOptions& out_opt) {
    const std::vector<PortfolioEntry> entries = default_portfolio(opt);
    const Result<PortfolioReport> run =
        solve_portfolio(problem, entries, n_threads);
    if (!run.ok()) return fail(run.status());

    for (const auto& o : run->outcomes) {
        std::fprintf(stderr,
                     "c portfolio: %-13s %-7s %s iters=%zu facts=%zu %.2fs\n",
                     o.name.c_str(), verdict_name(o.verdict),
                     o.errored ? "error" : o.interrupted ? "cancelled"
                                                         : "finished",
                     o.iterations, o.facts, o.seconds);
    }
    if (opt.cooperative) {
        std::fprintf(stderr,
                     "c portfolio: shared pool: %llu facts (%llu duplicate "
                     "publishes suppressed)\n",
                     static_cast<unsigned long long>(run->facts_shared),
                     static_cast<unsigned long long>(run->facts_suppressed));
    }
    std::fprintf(stderr, "c portfolio winner: %s (%.2fs total)\n",
                 run->winner_name.c_str(), run->seconds);

    return finish_run(run->report, out_opt, problem_vars);
}

}  // namespace
