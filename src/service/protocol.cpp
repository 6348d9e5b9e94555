#include "service/protocol.h"

#include <cstdio>
#include <sstream>
#include <vector>

#include "anf/monomial_store.h"
#include "bosphorus/bosphorus.h"
#include "sat/inprocess/inprocess.h"
#include "util/fault.h"
#include "util/parse.h"

namespace bosphorus::service {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> toks;
    std::istringstream in(line);
    std::string t;
    while (in >> t) toks.push_back(std::move(t));
    return toks;
}

/// "-" means "service default" (0.0); otherwise parse_seconds.
bool parse_timeout(const std::string& t, double& out) {
    if (t != "-") return parse_seconds(t, out);
    out = 0.0;
    return true;
}

std::string fmt_seconds(double s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", s);
    return buf;
}

const char* wire_code(StatusCode code) {
    switch (code) {
        case StatusCode::kOk: return "OK";
        case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
        case StatusCode::kParseError: return "PARSE_ERROR";
        case StatusCode::kIoError: return "IO_ERROR";
        case StatusCode::kInterrupted: return "INTERRUPTED";
        case StatusCode::kTimeout: return "TIMEOUT";
        case StatusCode::kUnavailable: return "UNAVAILABLE";
        case StatusCode::kUnimplemented: return "UNIMPLEMENTED";
        case StatusCode::kInternal: return "INTERNAL";
    }
    return "INTERNAL";
}

std::string err(const Status& status) {
    return std::string("ERR ") + wire_code(status.code()) + " " +
           status.message() + "\n";
}

std::string err_invalid(const std::string& message) {
    return err(Status::invalid_argument(message));
}

const char* verdict_name(sat::Result verdict) {
    switch (verdict) {
        case sat::Result::kSat: return "sat";
        case sat::Result::kUnsat: return "unsat";
        default: return "unknown";
    }
}

/// Read a counted payload block and parse it as an instance.
Result<Problem> read_problem(const std::string& kind, uint64_t n_lines,
                             const ProtocolHandler::LineReader& read_line) {
    if (kind != "anf" && kind != "cnf")
        return Status::invalid_argument("instance kind must be anf or cnf, got '" +
                                        kind + "'");
    std::string text;
    std::string line;
    for (uint64_t i = 0; i < n_lines; ++i) {
        if (!read_line(line))
            return Status::invalid_argument(
                "payload truncated: got " + std::to_string(i) + " of " +
                std::to_string(n_lines) + " lines");
        text += line;
        text += '\n';
    }
    return kind == "anf" ? Problem::from_anf_text(text)
                         : Problem::from_cnf_text(text);
}

std::string outcome_line(const JobOutcome& out) {
    std::string resp = "OK RESULT " + std::to_string(out.id) + " " +
                       job_state_name(out.state) + " " +
                       verdict_name(out.report.verdict) + " " +
                       fmt_seconds(out.queued_s) + " " +
                       fmt_seconds(out.run_s) + " ";
    if (out.report.verdict == sat::Result::kSat) {
        std::string bits;
        bits.reserve(out.report.solution.size());
        for (bool b : out.report.solution) bits += b ? '1' : '0';
        resp += bits.empty() ? "-" : bits;
    } else {
        resp += "-";
    }
    if (out.state == JobState::kFailed)
        resp += std::string(" ") + wire_code(out.error.code()) + ": " +
                out.error.message();
    resp += "\n";
    return resp;
}

/// "OK JOB <id>" for an admitted job, else the admission error.
std::string job_reply(const Result<JobId>& id) {
    return id.ok() ? "OK JOB " + std::to_string(*id) + "\n" : err(id.status());
}

/// The METRICS block: the service's own snapshot, interleaved with the
/// process-global counters read where they live. Keys keep their order.
std::string metrics_block(const ServiceStats& s) {
    std::vector<std::pair<std::string, std::string>> kv;
    auto put = [&kv](const std::string& k, auto v) {
        kv.emplace_back(k, std::to_string(v));
    };
    put("jobs_accepted", s.accepted);
    put("jobs_rejected", s.rejected);
    put("jobs_completed", s.completed);
    put("jobs_cancelled", s.cancelled);
    put("jobs_expired", s.expired);
    put("jobs_failed", s.failed);
    put("queue_depth", s.queued);
    put("running", s.running);
    put("clients", s.clients);
    put("open_sessions", s.open_sessions);
    put("warm_sessions", s.warm_sessions);
    kv.emplace_back("par2", fmt_seconds(s.par2()));
    put("par2_jobs", s.par2_jobs);
    for (const auto& [name, tally] : s.backend_verdicts) {
        put("backend." + name + ".sat", tally.sat);
        put("backend." + name + ".unsat", tally.unsat);
        put("backend." + name + ".unknown", tally.unknown);
    }
    const auto store = anf::MonomialStore::global().stats();
    put("store_entries", store.entries);
    put("store_arena_bytes", store.arena_bytes);
    put("store_entry_bytes", store.entry_bytes);
    put("store_mul_memo_entries", store.mul_memo_entries);
    put("store_mul_memo_hits", store.mul_memo_hits);
    put("store_mul_memo_misses", store.mul_memo_misses);
    put("jobs_deadline_rejected", s.deadline_rejected);
    put("client_disconnects", s.client_disconnects);
    kv.emplace_back("run_ewma_s", fmt_seconds(s.ewma_run_s));
    const fault::FaultInjector& inject = fault::FaultInjector::global();
    const std::string plan = inject.plan();
    kv.emplace_back("fault_plan", plan.empty() ? "-" : plan);
    put("faults_injected", inject.total_fired());
    const sat::ResilienceCounters& rc = sat::resilience_counters();
    put("resilience.attempts", rc.attempts.load());
    put("resilience.retries", rc.retries.load());
    put("resilience.fallbacks", rc.fallbacks.load());
    put("resilience.garbage_rejected", rc.garbage_rejected.load());
    put("resilience.exhausted", rc.exhausted.load());
    const sat::inprocess::InprocessCounters& ip = sat::inprocess::counters();
    put("inprocess.vivified_literals", ip.vivified_literals.load());
    put("inprocess.vivified_clauses", ip.vivified_clauses.load());
    put("inprocess.vivify_passes", ip.vivify_passes.load());
    put("inprocess.reconf_decisions", ip.reconf_decisions.load());
    put("inprocess.db_reductions", ip.db_reductions.load());
    put("inprocess.tier_core", ip.tier_core.load());
    put("inprocess.tier_mid", ip.tier_mid.load());
    put("inprocess.tier_local", ip.tier_local.load());
    const sat::HealthTracker& health = sat::BackendRegistry::global().health();
    put("circuit_opens", health.total_opens());
    for (const auto& c : health.snapshot()) {
        const std::string prefix = "circuit." + c.backend + ".";
        kv.emplace_back(prefix + "state",
                        sat::HealthTracker::state_name(c.state));
        put(prefix + "failures", c.failures);
        put(prefix + "consecutive_failures", c.consecutive_failures);
        put(prefix + "opens", c.opens);
    }
    kv.emplace_back("uptime_s", fmt_seconds(s.uptime_s));

    std::string resp = "OK METRICS " + std::to_string(kv.size()) + "\n";
    for (const auto& [k, v] : kv) resp += k + " " + v + "\n";
    return resp;
}

}  // namespace

ProtocolAction ProtocolHandler::handle(const std::string& request,
                                       const LineReader& read_line,
                                       std::string& response) {
    response.clear();
    const std::vector<std::string> toks = tokenize(request);
    if (toks.empty()) {
        response = err_invalid("empty request");
        return ProtocolAction::kContinue;
    }
    const std::string& verb = toks[0];

    if (verb == "HELLO") {
        response = std::string("OK bosphorusd ") + version() + "\n";
        return ProtocolAction::kContinue;
    }

    if (verb == "QUIT") {
        response = "OK\n";
        return ProtocolAction::kQuit;
    }

    if (verb == "SHUTDOWN") {
        response = "OK\n";
        return ProtocolAction::kShutdown;
    }

    if (verb == "SUBMIT") {
        // SUBMIT <client> <kind> <timeout|-> <solver|-> <nlines>
        uint64_t n_lines = 0;
        double timeout_s = 0.0;
        if (toks.size() != 6 || !parse_timeout(toks[3], timeout_s) ||
            !parse_integer(toks[5], n_lines)) {
            response = err_invalid(
                "usage: SUBMIT <client> anf|cnf <timeout_s|-> <solver|-> "
                "<nlines>");
            return ProtocolAction::kContinue;
        }
        Result<Problem> problem = read_problem(toks[2], n_lines, read_line);
        if (!problem.ok()) {
            response = err(problem.status());
            return ProtocolAction::kContinue;
        }
        JobRequest req;
        req.client = client_for(toks[1]);
        req.problem = std::move(problem).value();
        req.timeout_s = timeout_s;
        if (toks[4] != "-") req.solver = toks[4];
        response = job_reply(service_.submit(std::move(req)));
        return ProtocolAction::kContinue;
    }

    if (verb == "SESSION") {
        if (toks.size() >= 2 && toks[1] == "OPEN") {
            // SESSION OPEN <client> <name> <kind> <nlines>
            uint64_t n_lines = 0;
            if (toks.size() != 6 || !parse_integer(toks[5], n_lines)) {
                response = err_invalid(
                    "usage: SESSION OPEN <client> <name> anf|cnf <nlines>");
                return ProtocolAction::kContinue;
            }
            Result<Problem> base = read_problem(toks[4], n_lines, read_line);
            if (!base.ok()) {
                response = err(base.status());
                return ProtocolAction::kContinue;
            }
            const Status st = service_.open_session(
                client_for(toks[2]), toks[3], std::move(base).value());
            response = st.ok() ? "OK\n" : err(st);
            return ProtocolAction::kContinue;
        }
        if (toks.size() == 4 && toks[1] == "CLOSE") {
            const Status st =
                service_.close_session(client_for(toks[2]), toks[3]);
            response = st.ok() ? "OK\n" : err(st);
            return ProtocolAction::kContinue;
        }
        response = err_invalid("usage: SESSION OPEN|CLOSE ...");
        return ProtocolAction::kContinue;
    }

    if (verb == "ASSUME") {
        // ASSUME <client> <name> <timeout|-> <lit>...
        double timeout_s = 0.0;
        if (toks.size() < 5 || !parse_timeout(toks[3], timeout_s)) {
            response = err_invalid(
                "usage: ASSUME <client> <name> <timeout_s|-> <lit>...");
            return ProtocolAction::kContinue;
        }
        AssumptionSet assumptions;
        for (size_t i = 4; i < toks.size(); ++i) {
            int64_t lit = 0;
            if (!parse_integer(toks[i], lit) || lit == 0) {
                response = err_invalid("bad assumption literal '" + toks[i] +
                                       "' (1-based signed, e.g. -3)");
                return ProtocolAction::kContinue;
            }
            const Result<Assumption> assumption = assumption_from_literal(lit);
            if (!assumption.ok()) {
                response = err(assumption.status());
                return ProtocolAction::kContinue;
            }
            assumptions.push_back(*assumption);
        }
        response = job_reply(service_.submit_assumptions(
            client_for(toks[1]), toks[2], std::move(assumptions), timeout_s));
        return ProtocolAction::kContinue;
    }

    if (verb == "STATUS") {
        uint64_t id = 0;
        if (toks.size() != 2 || !parse_integer(toks[1], id)) {
            response = err_invalid("usage: STATUS <job-id>");
            return ProtocolAction::kContinue;
        }
        const Result<JobState> state = service_.job_state(id);
        response = state.ok() ? "OK STATUS " + std::to_string(id) + " " +
                                    job_state_name(*state) + "\n"
                              : err(state.status());
        return ProtocolAction::kContinue;
    }

    if (verb == "RESULT") {
        uint64_t id = 0;
        double wait_s = -1.0;
        const bool ok = (toks.size() == 2 && parse_integer(toks[1], id)) ||
                        (toks.size() == 3 && parse_integer(toks[1], id) &&
                         parse_timeout(toks[2], wait_s));
        if (!ok) {
            response = err_invalid("usage: RESULT <job-id> [<wait_s>]");
            return ProtocolAction::kContinue;
        }
        const Result<JobOutcome> outcome = service_.wait(id, wait_s);
        response = outcome.ok() ? outcome_line(*outcome) : err(outcome.status());
        return ProtocolAction::kContinue;
    }

    if (verb == "CANCEL") {
        uint64_t id = 0;
        if (toks.size() != 2 || !parse_integer(toks[1], id)) {
            response = err_invalid("usage: CANCEL <job-id>");
            return ProtocolAction::kContinue;
        }
        const Status st = service_.cancel(id);
        response = st.ok() ? "OK\n" : err(st);
        return ProtocolAction::kContinue;
    }

    if (verb == "METRICS") {
        response = metrics_block(service_.stats());
        return ProtocolAction::kContinue;
    }

    response = err_invalid("unknown verb '" + verb + "'");
    return ProtocolAction::kContinue;
}

}  // namespace bosphorus::service
