// The bosphorusd wire protocol (src/service/protocol.h), driven entirely
// in process: a ProtocolHandler over a live SolveService, fed request
// strings -- no sockets involved, so every verb and error path is
// deterministic and sanitizer-friendly. The SocketServer test at the end
// serves real connections on a Unix socket, one at a time.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bosphorus/bosphorus.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/fault.h"
#include "util/parse.h"

namespace bosphorus {
namespace {

using service::ProtocolAction;
using service::ProtocolHandler;

EngineConfig small_config() {
    EngineConfig cfg;
    cfg.xl.m_budget = 16;
    cfg.elimlin.m_budget = 16;
    cfg.sat_conflicts_start = 1000;
    cfg.max_iterations = 8;
    cfg.time_budget_s = 10.0;
    return cfg;
}

/// Drives a handler from a scripted payload queue.
struct Wire {
    explicit Wire(SolveService& svc) : handler(svc) {}

    /// Handle `request`; `payload` supplies the counted block lines.
    std::string request(const std::string& line,
                        std::vector<std::string> payload = {}) {
        std::deque<std::string> lines(payload.begin(), payload.end());
        std::string response;
        last_action = handler.handle(
            line,
            [&lines](std::string& out) {
                if (lines.empty()) return false;
                out = std::move(lines.front());
                lines.pop_front();
                return true;
            },
            response);
        return response;
    }

    ProtocolHandler handler;
    ProtocolAction last_action = ProtocolAction::kContinue;
};

/// The paper's running example: unique model x = 1,1,1,1,0.
const std::vector<std::string> kPaperAnf = {
    "x1*x2 + x3 + x4 + 1", "x1*x2*x3 + x1 + x3 + 1", "x1*x3 + x3*x4*x5 + x3",
    "x2*x3 + x3*x5 + 1",   "x2*x3 + x5 + 1",
};

ServiceConfig quick_service() {
    ServiceConfig cfg;
    cfg.engine = small_config();
    cfg.n_workers = 2;
    return cfg;
}

TEST(Protocol, HelloAndUnknownVerb) {
    SolveService svc(quick_service());
    Wire wire(svc);
    EXPECT_EQ(wire.request("HELLO"),
              std::string("OK bosphorusd ") + version() + "\n");
    EXPECT_EQ(wire.last_action, ProtocolAction::kContinue);
    const std::string err = wire.request("FROBNICATE x");
    EXPECT_EQ(err.rfind("ERR INVALID_ARGUMENT", 0), 0u) << err;
    EXPECT_EQ(wire.request(""), "ERR INVALID_ARGUMENT empty request\n");
}

TEST(Protocol, SubmitResultRoundTrip) {
    SolveService svc(quick_service());
    Wire wire(svc);
    const std::string submitted =
        wire.request("SUBMIT me anf 5 - 5", kPaperAnf);
    ASSERT_EQ(submitted.rfind("OK JOB ", 0), 0u) << submitted;
    const std::string id = submitted.substr(7, submitted.size() - 8);

    const std::string result = wire.request("RESULT " + id);
    // OK RESULT <id> done sat <queued> <run> 11110
    ASSERT_EQ(result.rfind("OK RESULT " + id + " done sat ", 0), 0u) << result;
    EXPECT_NE(result.find(" 11110\n"), std::string::npos) << result;

    const std::string status = wire.request("STATUS " + id);
    EXPECT_EQ(status, "OK STATUS " + id + " done\n");
}

TEST(Protocol, SubmitErrors) {
    SolveService svc(quick_service());
    Wire wire(svc);
    // Malformed usage.
    EXPECT_EQ(wire.request("SUBMIT me anf").rfind("ERR INVALID_ARGUMENT", 0),
              0u);
    // Bad kind.
    EXPECT_NE(wire.request("SUBMIT me tnf 5 - 1", {"x1"})
                  .find("kind must be anf or cnf"),
              std::string::npos);
    // Truncated payload (reader runs dry).
    EXPECT_NE(wire.request("SUBMIT me anf 5 - 3", {"x1 + 1"})
                  .find("payload truncated"),
              std::string::npos);
    // Parse error in the payload.
    EXPECT_EQ(wire.request("SUBMIT me anf 5 - 1", {"not anf"})
                  .rfind("ERR PARSE_ERROR", 0),
              0u);
    // Unknown solver spec fails the submit.
    EXPECT_EQ(wire.request("SUBMIT me anf 5 nope 5", kPaperAnf)
                  .rfind("ERR INVALID_ARGUMENT", 0),
              0u);
    // Unknown job ids.
    EXPECT_EQ(wire.request("RESULT 424242").rfind("ERR INVALID_ARGUMENT", 0),
              0u);
    EXPECT_EQ(wire.request("STATUS 424242").rfind("ERR INVALID_ARGUMENT", 0),
              0u);
    EXPECT_EQ(wire.request("CANCEL 424242").rfind("ERR INVALID_ARGUMENT", 0),
              0u);
}

TEST(Protocol, SessionSweepOverTheWire) {
    SolveService svc(quick_service());
    Wire wire(svc);
    ASSERT_EQ(wire.request("SESSION OPEN me sweep anf 5", kPaperAnf), "OK\n");
    // Duplicate open is a structured error.
    EXPECT_EQ(wire.request("SESSION OPEN me sweep anf 5", kPaperAnf)
                  .rfind("ERR INVALID_ARGUMENT", 0),
              0u);

    // x5 = 0 (literal -5) is the planted polarity; x5 = 1 contradicts.
    const std::string sat_submit = wire.request("ASSUME me sweep 5 -5");
    ASSERT_EQ(sat_submit.rfind("OK JOB ", 0), 0u) << sat_submit;
    const std::string sat_id = sat_submit.substr(7, sat_submit.size() - 8);
    const std::string unsat_submit = wire.request("ASSUME me sweep 5 5");
    ASSERT_EQ(unsat_submit.rfind("OK JOB ", 0), 0u) << unsat_submit;
    const std::string unsat_id =
        unsat_submit.substr(7, unsat_submit.size() - 8);

    EXPECT_NE(wire.request("RESULT " + sat_id).find(" done sat "),
              std::string::npos);
    EXPECT_NE(wire.request("RESULT " + unsat_id).find(" done unsat "),
              std::string::npos);

    // Bad literals and unknown sessions are structured errors.
    EXPECT_NE(wire.request("ASSUME me sweep 5 zero").find("bad assumption"),
              std::string::npos);
    EXPECT_NE(wire.request("ASSUME me sweep 5 0").find("bad assumption"),
              std::string::npos);
    EXPECT_EQ(wire.request("ASSUME me nope 5 1").rfind("ERR INVALID_ARGUMENT", 0),
              0u);
    EXPECT_EQ(wire.request("SESSION CLOSE me sweep"), "OK\n");
    EXPECT_EQ(wire.request("SESSION CLOSE me sweep")
                  .rfind("ERR INVALID_ARGUMENT", 0),
              0u);
}

TEST(Protocol, ForcedClientOverridesRequestToken) {
    SolveService svc(quick_service());
    // Tenant A opens a session under its connection identity.
    Wire tenant_a(svc);
    tenant_a.handler.set_forced_client("conn-a");
    ASSERT_EQ(tenant_a.request("SESSION OPEN whatever s anf 5", kPaperAnf),
              "OK\n");
    // Tenant B cannot reach it, even by naming A's tokens explicitly.
    Wire tenant_b(svc);
    tenant_b.handler.set_forced_client("conn-b");
    EXPECT_EQ(tenant_b.request("ASSUME whatever s 5 -5")
                  .rfind("ERR INVALID_ARGUMENT", 0),
              0u);
    EXPECT_EQ(tenant_b.request("ASSUME conn-a s 5 -5")
                  .rfind("ERR INVALID_ARGUMENT", 0),
              0u);
    // A itself is unaffected by the token it sends.
    EXPECT_EQ(tenant_a.request("ASSUME ignored s 5 -5").rfind("OK JOB ", 0),
              0u);
}

TEST(Protocol, MetricsBlockIsCountPrefixed) {
    SolveService svc(quick_service());
    Wire wire(svc);
    const std::string sub = wire.request("SUBMIT me anf 5 - 5", kPaperAnf);
    ASSERT_EQ(sub.rfind("OK JOB ", 0), 0u);
    wire.request("RESULT " + sub.substr(7, sub.size() - 8));

    const std::string block = wire.request("METRICS");
    ASSERT_EQ(block.rfind("OK METRICS ", 0), 0u) << block;
    const size_t header_end = block.find('\n');
    const int n = std::stoi(block.substr(11, header_end - 11));
    // Exactly n key-value lines follow the header.
    int lines = 0;
    for (size_t pos = header_end + 1; pos < block.size();) {
        const size_t nl = block.find('\n', pos);
        EXPECT_NE(nl, std::string::npos);
        const std::string line = block.substr(pos, nl - pos);
        EXPECT_NE(line.find(' '), std::string::npos) << line;
        ++lines;
        pos = nl + 1;
    }
    EXPECT_EQ(lines, n);
    EXPECT_NE(block.find("jobs_accepted 1\n"), std::string::npos) << block;
    EXPECT_NE(block.find("jobs_completed 1\n"), std::string::npos);
    EXPECT_NE(block.find("backend.native.sat 1\n"), std::string::npos);
    EXPECT_NE(block.find("store_entries "), std::string::npos);
}

// Clients parse METRICS by key, but dashboards diff whole blocks: the keys
// keep their order. The circuit.<backend>.* lines are left out because
// the backends they list depend on what ran earlier in the process.
TEST(Protocol, MetricsKeysKeepTheirOrder) {
    SolveService svc(quick_service());
    Wire wire(svc);
    const std::string sub = wire.request("SUBMIT me anf 5 - 5", kPaperAnf);
    ASSERT_EQ(sub.rfind("OK JOB ", 0), 0u);
    ASSERT_NE(wire.request("RESULT " + sub.substr(7, sub.size() - 8))
                  .find(" done sat "),
              std::string::npos);

    const std::string block = wire.request("METRICS");
    std::vector<std::string> keys;
    for (size_t pos = block.find('\n') + 1; pos < block.size();) {
        const size_t nl = block.find('\n', pos);
        const std::string key = block.substr(pos, block.find(' ', pos) - pos);
        if (key.rfind("circuit.", 0) != 0) keys.push_back(key);
        pos = nl + 1;
    }
    const std::vector<std::string> expected = {
        "jobs_accepted", "jobs_rejected", "jobs_completed", "jobs_cancelled",
        "jobs_expired", "jobs_failed", "queue_depth", "running", "clients",
        "open_sessions", "warm_sessions", "par2", "par2_jobs",
        "backend.native.sat", "backend.native.unsat", "backend.native.unknown",
        "store_entries", "store_arena_bytes", "store_entry_bytes",
        "store_mul_memo_entries", "store_mul_memo_hits",
        "store_mul_memo_misses", "jobs_deadline_rejected",
        "client_disconnects", "run_ewma_s", "fault_plan", "faults_injected",
        "resilience.attempts", "resilience.retries", "resilience.fallbacks",
        "resilience.garbage_rejected", "resilience.exhausted",
        "inprocess.vivified_literals", "inprocess.vivified_clauses",
        "inprocess.vivify_passes", "inprocess.reconf_decisions",
        "inprocess.db_reductions", "inprocess.tier_core", "inprocess.tier_mid",
        "inprocess.tier_local", "circuit_opens", "uptime_s"};
    EXPECT_EQ(keys, expected) << block;
}

TEST(Protocol, AssumeRejectsLiteralsBeyondTheVariableRange) {
    SolveService svc(quick_service());
    Wire wire(svc);
    ASSERT_EQ(wire.request("SESSION OPEN me s anf 1", {"x1*x2 + 1"}), "OK\n");
    // Each names a variable anf::Var cannot hold; none may wrap onto x1.
    for (const auto& [lit, var] :
         std::vector<std::pair<std::string, std::string>>{
             {"-4294967297", "x4294967297"},
             {"4294967297", "x4294967297"},
             {"-9223372036854775808", "x9223372036854775808"},
             {"9223372036854775807", "x9223372036854775807"},
             // The largest anf::Var, outside this 2-variable session.
             {"4294967296", "x4294967296"}}) {
        const std::string resp = wire.request("ASSUME me s - " + lit);
        EXPECT_EQ(resp.rfind("ERR INVALID_ARGUMENT", 0), 0u) << lit << resp;
        EXPECT_NE(resp.find(var + " "), std::string::npos) << lit << resp;
    }
    const std::string block = wire.request("METRICS");
    EXPECT_NE(block.find("\njobs_accepted 0\n"), std::string::npos) << block;
}

TEST(Protocol, QuitAndShutdownActions) {
    SolveService svc(quick_service());
    Wire wire(svc);
    EXPECT_EQ(wire.request("QUIT"), "OK\n");
    EXPECT_EQ(wire.last_action, ProtocolAction::kQuit);
    EXPECT_EQ(wire.request("SHUTDOWN"), "OK\n");
    EXPECT_EQ(wire.last_action, ProtocolAction::kShutdown);
}

TEST(Protocol, RejectionIsStructuredOverTheWire) {
    // A zero-capacity queue cannot admit anything: the wire answer is a
    // parseable ERR UNAVAILABLE, not a closed connection.
    ServiceConfig cfg = quick_service();
    cfg.max_queued_jobs = 0;
    SolveService svc(cfg);
    Wire wire(svc);
    const std::string resp = wire.request("SUBMIT me anf 5 - 5", kPaperAnf);
    EXPECT_EQ(resp.rfind("ERR UNAVAILABLE", 0), 0u) << resp;
    EXPECT_NE(resp.find("queue full"), std::string::npos);
    // Backpressure rejections always carry a machine-readable retry hint.
    EXPECT_NE(resp.find("retry_after_ms="), std::string::npos) << resp;
}

TEST(Protocol, InflightQuotaIsEnforcedPerClient) {
    // The queue-delay fault parks the first job in the worker for 25 ms,
    // long enough that the same client's second submit deterministically
    // finds it still in flight.
    ServiceConfig cfg = quick_service();
    cfg.max_inflight_per_client = 1;
    cfg.fault_plan = "queue-delay=1,seed=7";
    struct Disarm {
        ~Disarm() { (void)fault::FaultInjector::global().arm(""); }
    } disarm;

    SolveService svc(cfg);
    Wire wire(svc);
    const std::string first = wire.request("SUBMIT me anf 5 - 5", kPaperAnf);
    ASSERT_EQ(first.rfind("OK JOB ", 0), 0u) << first;

    const std::string over = wire.request("SUBMIT me anf 5 - 5", kPaperAnf);
    EXPECT_EQ(over.rfind("ERR UNAVAILABLE", 0), 0u) << over;
    EXPECT_NE(over.find("quota"), std::string::npos) << over;
    EXPECT_NE(over.find("retry_after_ms="), std::string::npos) << over;

    // The quota is per client: a different client is still admitted.
    const std::string other = wire.request("SUBMIT you anf 5 - 5", kPaperAnf);
    EXPECT_EQ(other.rfind("OK JOB ", 0), 0u) << other;

    // Completion releases the quota slot for the original client.
    wire.request("RESULT " + first.substr(7, first.size() - 8));
    const std::string again = wire.request("SUBMIT me anf 5 - 5", kPaperAnf);
    EXPECT_EQ(again.rfind("OK JOB ", 0), 0u) << again;
}

TEST(Protocol, MetricsExposeResilienceAndFaultState) {
    SolveService svc(quick_service());
    Wire wire(svc);
    const std::string sub = wire.request("SUBMIT me anf 5 - 5", kPaperAnf);
    ASSERT_EQ(sub.rfind("OK JOB ", 0), 0u);
    wire.request("RESULT " + sub.substr(7, sub.size() - 8));

    const std::string block = wire.request("METRICS");
    for (const char* key :
         {"\njobs_deadline_rejected ", "\nclient_disconnects ",
          "\nrun_ewma_s ", "\nfault_plan ", "\nfaults_injected ",
          "\nresilience.attempts ", "\nresilience.retries ",
          "\nresilience.fallbacks ", "\nresilience.garbage_rejected ",
          "\nresilience.exhausted ", "\ncircuit_opens "}) {
        EXPECT_NE(block.find(key), std::string::npos) << key << "\n" << block;
    }
    // No plan armed here: the placeholder keeps the line two-token.
    EXPECT_NE(block.find("\nfault_plan -\n"), std::string::npos) << block;
}

TEST(Protocol, ClientDisconnectMidResultIsSurvivedAndCounted) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    EXPECT_TRUE(service::write_all_nosignal(sv[0], "RESULT head\n"));
    ::close(sv[1]);
    // Writing the rest of the RESULT into the dead peer must fail with a
    // plain error, not kill the process with SIGPIPE.
    bool ok = true;
    for (int i = 0; i < 64 && ok; ++i) {
        ok = service::write_all_nosignal(sv[0], std::string(1 << 16, 'x'));
    }
    EXPECT_FALSE(ok);
    EXPECT_TRUE(errno == EPIPE || errno == ECONNRESET) << errno;
    ::close(sv[0]);

    // The connection front end reports the drop; METRICS surfaces it.
    SolveService svc(quick_service());
    svc.note_client_disconnect();
    Wire wire(svc);
    const std::string block = wire.request("METRICS");
    EXPECT_NE(block.find("\nclient_disconnects 1\n"), std::string::npos)
        << block;
}

/// This process's virtual size in kB (VmSize), 0 without procfs.
uint64_t vm_size_kb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
    return 0;
}

/// Connect to `path`, send `request` and read until the server closes.
std::string round_trip(const std::string& path, const std::string& request) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    std::string reply;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
        service::write_all_nosignal(fd, request)) {
        char buf[256];
        ssize_t n;
        while ((n = ::read(fd, buf, sizeof buf)) > 0)
            reply.append(buf, size_t(n));
    }
    ::close(fd);
    return reply;
}

// A daemon serves connection after connection for days: each finished
// connection's thread (its stack, its thread-local state) must be given
// back then, not at shutdown.
TEST(SocketServer, FinishedConnectionsDoNotPinTheirThreads) {
    const std::string path =
        "/tmp/bosphorus-conn-test-" + std::to_string(::getpid()) + ".sock";
    SolveService svc(quick_service());
    service::SocketServer server(svc, path);
    ASSERT_TRUE(server.start().ok());
    ASSERT_EQ(round_trip(path, "HELLO\nQUIT\n").rfind("OK bosphorusd ", 0), 0u);
    const uint64_t before_kb = vm_size_kb();
    for (int i = 0; i < 200; ++i)  // one at a time, never many at once
        ASSERT_EQ(round_trip(path, "HELLO\nQUIT\n").rfind("OK bosphorusd ", 0),
                  0u) << "connection " << i;
    const int64_t grown_kb = int64_t(vm_size_kb()) - int64_t(before_kb);
    server.stop();
    EXPECT_LT(grown_kb, 64 * 1024) << "VmSize grew by " << grown_kb << " kB";
}

// bosphorusd parses its count options (--workers, --max-queue, ...) with
// parse_integer into the option's own type.
TEST(DaemonOptions, CountParserRejectsSignOverflowTrailingAndEmpty) {
    unsigned workers = 7;
    EXPECT_TRUE(parse_integer("16", workers));
    EXPECT_EQ(workers, 16u);
    for (const char* bad : {"-1", "4294967296", "16x", ""}) {
        unsigned n = 7;
        EXPECT_FALSE(parse_integer(bad, n)) << "'" << bad << "'";
        EXPECT_EQ(n, 7u) << "a rejected count must leave the option as is";
    }
    size_t queue = 0;
    EXPECT_TRUE(parse_integer("4294967296", queue));
    EXPECT_EQ(queue, size_t{4294967296});
    EXPECT_FALSE(parse_integer("+16", queue));
}

// bosphorusd's duration options (--drain-grace, --default-timeout, ...)
// and the wire's timeout token go through parse_seconds.
TEST(DaemonOptions, SecondsParserAcceptsFiniteNonNegativeOnly) {
    double d = -1.0;
    EXPECT_TRUE(parse_seconds("2.5", d));
    EXPECT_EQ(d, 2.5);
    EXPECT_TRUE(parse_seconds("0", d));
    EXPECT_EQ(d, 0.0);
    EXPECT_TRUE(parse_seconds("1e3", d));
    EXPECT_EQ(d, 1000.0);
    for (const char* bad : {"inf", "INF", "infinity", "nan", "NaN", "1e999",
                            "0x10", "-1", "+1", "1.5s", " 1", "", "-"}) {
        double v = 7.0;
        EXPECT_FALSE(parse_seconds(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7.0) << "a rejected duration must leave the option as is";
    }
}

TEST(Protocol, SubmitRejectsNonFiniteAndHexTimeouts) {
    SolveService svc(quick_service());
    Wire wire(svc);
    for (const char* t : {"inf", "nan", "1e999", "0x10"}) {
        const std::string resp = wire.request(
            std::string("SUBMIT me anf ") + t + " - 5", kPaperAnf);
        EXPECT_EQ(resp.rfind("ERR INVALID_ARGUMENT", 0), 0u) << t << ": " << resp;
    }
    // Nothing was admitted, so nothing expired either.
    const std::string block = wire.request("METRICS");
    EXPECT_NE(block.find("\njobs_accepted 0\n"), std::string::npos) << block;
    EXPECT_NE(block.find("\njobs_expired 0\n"), std::string::npos) << block;
}

}  // namespace
}  // namespace bosphorus
