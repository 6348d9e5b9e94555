// bosphorusd -- the multi-tenant solve daemon: a SolveService behind a
// Unix-domain socket speaking the newline protocol of
// src/service/protocol.h.
//
//   bosphorusd --socket /tmp/bosphorusd.sock [options]
//
// Drive it with examples/service_client.cpp, `nc -U`, or any client that
// writes "VERB args\n" lines. SIGINT/SIGTERM (or a SHUTDOWN verb) stop it
// cleanly: queued and running jobs are cancelled cooperatively, workers
// drain, the socket is unlinked.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bosphorus/bosphorus.h"
#include "service/server.h"
#include "util/parse.h"

namespace {

using namespace bosphorus;

void usage() {
    std::puts(
        "bosphorusd: the Bosphorus solve service (DATE'19 reproduction)\n"
        "\n"
        "usage:\n"
        "  bosphorusd --socket PATH [options]\n"
        "\n"
        "options:\n"
        "  --socket PATH        Unix socket to listen on\n"
        "                       (default /tmp/bosphorusd.sock)\n"
        "  --workers N          worker threads (default: hardware\n"
        "                       concurrency; explicit counts are honoured)\n"
        "  --max-queue N        admission bound on waiting jobs (256)\n"
        "  --max-sessions N     open sessions per client (8)\n"
        "  --max-inflight N     per-client in-flight job quota (0 = none)\n"
        "  --default-timeout S  per-job deadline when none given (30)\n"
        "  --max-timeout S      hard cap on requested deadlines (0 = none)\n"
        "  --drain-grace S      on shutdown, let running jobs finish for up\n"
        "                       to S seconds before cancelling them (0)\n"
        "  --no-deadline-admission\n"
        "                       accept jobs even when the queue is too deep\n"
        "                       for their deadline to be meetable\n"
        "  --fault-plan PLAN    arm deterministic fault injection, e.g.\n"
        "                       'backend-crash=0.3,io-enospc=1@cap1,seed=7'\n"
        "                       (testing; also via BOSPHORUS_FAULT_PLAN)\n"
        "  --loop-solver SPEC   default in-loop SAT back end (native)\n"
        "  --cooperative        run one-shot jobs as cooperative portfolio\n"
        "                       races sharing learnt facts (verdicts are\n"
        "                       identical to isolated runs; each job may\n"
        "                       use one thread per portfolio entry)\n"
        "  --timeout S          engine time budget per job (1000)\n"
        "  --seed N             engine RNG seed (1)\n"
        "  -v                   verbose engine logging\n"
        "  --help               this text\n"
        "\n"
        "protocol (one request per line; see src/service/protocol.h):\n"
        "  HELLO | SUBMIT | SESSION OPEN/CLOSE | ASSUME | STATUS |\n"
        "  RESULT | CANCEL | METRICS | SHUTDOWN | QUIT");
}

}  // namespace

int main(int argc, char** argv) {
    std::string socket_path = "/tmp/bosphorusd.sock";
    ServiceConfig cfg;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        // The next argument, parsed whole into an integer option of the
        // option's own type: no sign for unsigned options, no overflow.
        auto next_int = [&](auto& option) {
            const char* v = next();
            return v && parse_integer(v, option);
        };
        // ... and into a duration option: finite seconds >= 0.
        auto next_seconds = [&](double& option) {
            const char* v = next();
            return v && parse_seconds(v, option);
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--socket") {
            const char* v = next();
            if (!v) { usage(); return 2; }
            socket_path = v;
        } else if (arg == "--workers") {
            if (!next_int(cfg.n_workers)) { usage(); return 2; }
        } else if (arg == "--max-queue") {
            if (!next_int(cfg.max_queued_jobs)) { usage(); return 2; }
        } else if (arg == "--max-sessions") {
            if (!next_int(cfg.max_sessions_per_client)) { usage(); return 2; }
        } else if (arg == "--max-inflight") {
            if (!next_int(cfg.max_inflight_per_client)) { usage(); return 2; }
        } else if (arg == "--drain-grace") {
            if (!next_seconds(cfg.drain_grace_s)) { usage(); return 2; }
        } else if (arg == "--no-deadline-admission") {
            cfg.deadline_admission = false;
        } else if (arg == "--fault-plan") {
            const char* v = next();
            if (!v) { usage(); return 2; }
            cfg.fault_plan = v;
        } else if (arg == "--default-timeout") {
            if (!next_seconds(cfg.default_timeout_s)) { usage(); return 2; }
        } else if (arg == "--max-timeout") {
            if (!next_seconds(cfg.max_timeout_s)) { usage(); return 2; }
        } else if (arg == "--cooperative") {
            cfg.engine.cooperative = true;
        } else if (arg == "--loop-solver") {
            const char* v = next();
            if (!v) { usage(); return 2; }
            cfg.engine.sat_backend = v;
        } else if (arg == "--timeout") {
            if (!next_seconds(cfg.engine.time_budget_s)) { usage(); return 2; }
        } else if (arg == "--seed") {
            if (!next_int(cfg.engine.seed)) { usage(); return 2; }
        } else if (arg == "-v") {
            ++cfg.engine.verbosity;
        } else {
            std::fprintf(stderr, "bosphorusd: unknown option '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }

    // A client that disappears mid-write must surface as EPIPE on the
    // connection thread, never as a process-killing SIGPIPE. The write
    // path already uses MSG_NOSIGNAL; this covers platforms without it.
    std::signal(SIGPIPE, SIG_IGN);

    // Deliver SIGINT/SIGTERM to a dedicated sigwait thread: signal
    // handlers cannot take the locks request_stop() needs.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    SolveService svc(cfg);
    service::SocketServer server(svc, socket_path);
    const Status st = server.start();
    if (!st.ok()) {
        std::fprintf(stderr, "bosphorusd: %s\n", st.to_string().c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "bosphorusd %s listening on %s (%u workers, queue cap %zu)\n",
                 version(), socket_path.c_str(), svc.config().n_workers,
                 svc.config().max_queued_jobs);

    std::atomic<bool> quit_signal_thread{false};
    std::thread signal_thread([&sigs, &server, &quit_signal_thread] {
        const timespec tick{0, 200'000'000};  // re-check the exit flag at 5 Hz
        while (!quit_signal_thread.load(std::memory_order_acquire)) {
            const int sig = sigtimedwait(&sigs, nullptr, &tick);
            if (sig > 0) {
                std::fprintf(stderr,
                             "bosphorusd: caught signal %d, shutting down\n",
                             sig);
                server.request_stop();
                return;
            }
        }
    });

    server.wait();
    server.stop();
    quit_signal_thread.store(true, std::memory_order_release);
    signal_thread.join();

    const ServiceStats stats = svc.stats();
    std::fprintf(stderr,
                 "bosphorusd: served %llu jobs (%llu done, %llu cancelled, "
                 "%llu expired, %llu failed), %llu rejected; PAR-2 %.3f\n",
                 static_cast<unsigned long long>(stats.accepted),
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(stats.cancelled),
                 static_cast<unsigned long long>(stats.expired),
                 static_cast<unsigned long long>(stats.failed),
                 static_cast<unsigned long long>(stats.rejected),
                 stats.par2());
    return 0;
}
