// The "resilient" decorator backend and the registry's HealthTracker.
//
// ResilientBackend buffers the formula (the LingelingLikeBackend shape:
// cold, verdict-equivalent, no warm starts) and drives a fallback chain
// of real backends through bounded retries. Every attempt runs on a
// FRESH instance of the underlying backend, so a crashed / hung /
// garbage-spewing attempt leaves nothing poisoned behind; a kSat model
// is verified against the buffered formula before it is believed, so a
// lying backend costs a retry, never a wrong verdict.
//
// Failure taxonomy per attempt:
//   - verdict (kSat with a verified model / kUnsat / in-process
//     kUnknown, which only means budget-or-timeout): done, record
//     success with the circuit breaker.
//   - stopped (interrupt, terminate hook, the *overall* deadline):
//     return kUnknown without a health penalty -- the caller asked.
//   - failed (external kUnknown with none of the above causes, an
//     unverifiable model, an injected crash): record a health failure,
//     back off with deterministic jitter, retry; after max_attempts
//     move down the chain.
//
// In-process attempts can also "crash" via the backend-crash fault site,
// so the whole retry/fallback machinery is testable without spawning a
// single child process.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "bosphorus/sat_backend.h"
#include "sat/solve_cnf.h"
#include "util/fault.h"
#include "util/timer.h"

namespace bosphorus::sat {

// ---- HealthTracker ---------------------------------------------------------

namespace {

double monotonic_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

void HealthTracker::set_config(Config cfg) {
    std::lock_guard<std::mutex> lock(mu_);
    cfg_ = cfg;
}

HealthTracker::Config HealthTracker::config() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cfg_;
}

const char* HealthTracker::state_name(CircuitState s) {
    switch (s) {
        case CircuitState::kClosed: return "closed";
        case CircuitState::kOpen: return "open";
        case CircuitState::kHalfOpen: return "half-open";
    }
    return "?";
}

bool HealthTracker::allow(const std::string& backend) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, e] : entries_) {
        if (name != backend) continue;
        switch (e.state) {
            case CircuitState::kClosed: return true;
            case CircuitState::kHalfOpen: return false;  // probe in flight
            case CircuitState::kOpen:
                if (monotonic_seconds() - e.opened_at_s <
                    cfg_.open_cooldown_s)
                    return false;
                // Cooldown over: this caller becomes the one probe.
                e.state = CircuitState::kHalfOpen;
                return true;
        }
    }
    return true;  // unknown backends start closed
}

void HealthTracker::record_success(const std::string& backend) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, e] : entries_) {
        if (name != backend) continue;
        ++e.successes;
        e.consecutive_failures = 0;
        e.state = CircuitState::kClosed;
        return;
    }
    Entry e;
    e.successes = 1;
    entries_.emplace_back(backend, e);
}

void HealthTracker::record_failure(const std::string& backend) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry* entry = nullptr;
    for (auto& [name, e] : entries_) {
        if (name == backend) {
            entry = &e;
            break;
        }
    }
    if (!entry) {
        entries_.emplace_back(backend, Entry{});
        entry = &entries_.back().second;
    }
    ++entry->failures;
    ++entry->consecutive_failures;
    const bool open_now =
        entry->state == CircuitState::kHalfOpen ||  // failed probe
        (entry->state == CircuitState::kClosed &&
         entry->consecutive_failures >= cfg_.failure_threshold);
    if (open_now) {
        entry->state = CircuitState::kOpen;
        entry->opened_at_s = monotonic_seconds();
        ++entry->opens;
    }
}

std::vector<HealthTracker::Snapshot> HealthTracker::snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Snapshot> out;
    out.reserve(entries_.size());
    for (const auto& [name, e] : entries_) {
        Snapshot s;
        s.backend = name;
        s.state = e.state;
        s.successes = e.successes;
        s.failures = e.failures;
        s.consecutive_failures = e.consecutive_failures;
        s.opens = e.opens;
        out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end(),
              [](const Snapshot& a, const Snapshot& b) {
                  return a.backend < b.backend;
              });
    return out;
}

uint64_t HealthTracker::total_opens() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& [_, e] : entries_) total += e.opens;
    return total;
}

void HealthTracker::reset() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
}

// ---- ResilienceCounters ----------------------------------------------------

ResilienceCounters& resilience_counters() {
    static ResilienceCounters counters;
    return counters;
}

// ---- ResilientBackend ------------------------------------------------------

namespace {

/// splitmix64 (the rng.h seeding mixer): deterministic backoff jitter.
uint64_t mix64(uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

bool is_in_process(const std::string& backend_name) {
    return backend_name == "minisat" || backend_name == "lingeling" ||
           backend_name == "cms";
}

std::string trim(const std::string& s) {
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

/// `key=value` option entries are recognised by their keys; anything
/// else in the comma-list is a chain backend spec.
bool parse_option(const std::string& entry, ResilienceOptions& opts,
                  Status& error) {
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = trim(entry.substr(0, eq));
    const std::string value = trim(entry.substr(eq + 1));
    const auto number = [&](double lo, double* out) {
        char* end = nullptr;
        errno = 0;
        const double v = std::strtod(value.c_str(), &end);
        if (errno != 0 || end == value.c_str() || *end != '\0' || v < lo) {
            error = Status::invalid_argument("resilient: bad value '" +
                                             value + "' for option '" + key +
                                             "'");
            return false;
        }
        *out = v;
        return true;
    };
    double v = 0;
    if (key == "retries") {
        // retries=N means N retries, i.e. N+1 attempts per chain entry.
        if (number(0, &v)) opts.max_attempts = static_cast<uint32_t>(v) + 1;
        return true;
    }
    if (key == "attempt-timeout") {
        if (number(0, &v)) opts.attempt_timeout_s = v;
        return true;
    }
    if (key == "backoff") {
        if (number(0, &v)) opts.backoff_base_s = v;
        return true;
    }
    return false;  // an '=' inside a command line, not an option
}

class ResilientBackend final : public SolverBackend {
public:
    ResilientBackend(std::vector<SolverSpec> chain, ResilienceOptions opts)
        : chain_(std::move(chain)), opts_(opts) {}

    std::string name() const override { return "resilient"; }

    void ensure_vars(size_t n) override {
        buffer_.num_vars = std::max(buffer_.num_vars, n);
    }
    size_t num_vars() const override { return buffer_.num_vars; }

    bool add_clause(const std::vector<Lit>& lits) override {
        buffer_.clauses.push_back(lits);
        if (lits.empty()) ok_ = false;
        return ok_;
    }

    bool add_xor(const XorConstraint& x) override {
        buffer_.xors.push_back(x);
        return ok_;
    }

    void assume(Lit l) override { assumptions_.push_back(l); }

    Result solve(int64_t conflict_budget, double timeout_s) override {
        const std::vector<Lit> assumptions = std::move(assumptions_);
        assumptions_.clear();
        failed_all_ = false;
        model_.clear();
        if (stop_requested()) return Result::kUnknown;
        if (!ok_) return Result::kUnsat;

        // The formula every attempt solves (and every kSat model is
        // verified against): buffer + assumptions as unit clauses.
        Cnf work = buffer_;
        for (const Lit a : assumptions) work.add_clause({a});

        auto& counters = resilience_counters();
        auto& health = BackendRegistry::global().health();
        Timer overall;

        for (size_t ci = 0; ci < chain_.size(); ++ci) {
            const SolverSpec& spec = chain_[ci];
            const std::string backend_name = spec.backend_name();
            // The final entry is the known-good floor: it must stay
            // reachable even with its circuit open, or degrading would
            // have nowhere left to go.
            const bool last = ci + 1 == chain_.size();
            if (!last && !health.allow(backend_name)) {
                counters.fallbacks.fetch_add(1, std::memory_order_relaxed);
                continue;
            }

            for (uint32_t attempt = 0; attempt < opts_.max_attempts;
                 ++attempt) {
                if (stop_requested()) return Result::kUnknown;
                double remaining = -1;
                if (timeout_s >= 0) {
                    remaining = timeout_s - overall.seconds();
                    if (remaining <= 0) return Result::kUnknown;
                }
                double attempt_timeout = opts_.attempt_timeout_s;
                if (attempt_timeout < 0) {
                    attempt_timeout = remaining;
                } else if (remaining >= 0) {
                    attempt_timeout = std::min(attempt_timeout, remaining);
                }

                counters.attempts.fetch_add(1, std::memory_order_relaxed);
                Result verdict = Result::kUnknown;
                const Attempt outcome =
                    run_attempt(spec, work, assumptions.empty(),
                                conflict_budget, attempt_timeout, &verdict);
                if (outcome == Attempt::kVerdict) {
                    health.record_success(backend_name);
                    return verdict;
                }
                if (outcome == Attempt::kStopped) return Result::kUnknown;
                health.record_failure(backend_name);
                if (attempt + 1 < opts_.max_attempts) {
                    counters.retries.fetch_add(1, std::memory_order_relaxed);
                    backoff(attempt, timeout_s, overall);
                }
            }
            if (!last)
                counters.fallbacks.fetch_add(1, std::memory_order_relaxed);
        }
        counters.exhausted.fetch_add(1, std::memory_order_relaxed);
        return Result::kUnknown;
    }

    LBool value(Var v) const override {
        return v < model_.size() ? model_[v] : LBool::kFalse;
    }

    /// Degraded-assumption backend: a refuted solve blames every
    /// assumption (attempts are cold; conflicts cannot be attributed).
    bool failed(Lit) const override { return failed_all_ || !ok_; }

    bool okay() const override { return ok_; }

    void interrupt() override {
        interrupted_.store(true, std::memory_order_release);
    }
    void clear_interrupt() override {
        interrupted_.store(false, std::memory_order_release);
    }
    void set_terminate_callback(std::function<bool()> cb) override {
        terminate_cb_ = std::move(cb);
    }

    Solver::Stats stats() const override { return stats_; }

    bool supports_assumptions() const override { return false; }

private:
    enum class Attempt : uint8_t { kVerdict, kFailed, kStopped };

    bool stop_requested() const {
        if (interrupted_.load(std::memory_order_acquire)) return true;
        return terminate_cb_ && terminate_cb_();
    }

    /// One solve on a fresh instance of `spec`. On kVerdict, `*verdict`
    /// holds the (verified) answer and this object's model/ok state is
    /// updated; kFailed and kStopped leave no trace behind.
    Attempt run_attempt(const SolverSpec& spec, const Cnf& work,
                        bool outright, int64_t conflict_budget,
                        double timeout_s, Result* verdict) {
        const bool in_process = is_in_process(spec.backend_name());
        auto& inject = fault::FaultInjector::global();
        // Subprocess backends evaluate crash/hang themselves, at the
        // point the real failure would strike; for in-process attempts
        // the decorator plays the crashing child, so the whole retry /
        // fallback machinery is testable without fork().
        if (in_process && inject.armed() &&
            inject.should_fire(fault::Site::kBackendCrash))
            return Attempt::kFailed;

        auto made = BackendRegistry::global().create(spec);
        if (!made.ok()) return Attempt::kFailed;
        SolverBackend& b = **made;
        b.set_terminate_callback([this] { return stop_requested(); });

        const bool loaded = b.load(work);
        Result r = Result::kUnsat;
        if (loaded) r = b.solve(conflict_budget, timeout_s);

        if (r == Result::kSat) {
            std::vector<LBool> model(work.num_vars, LBool::kFalse);
            for (Var v = 0; v < work.num_vars; ++v) model[v] = b.value(v);
            // Injected garbage on an in-process attempt: corrupt the
            // reported model and let the REAL verification path reject it.
            if (in_process && inject.armed() &&
                inject.should_fire(fault::Site::kBackendGarbage)) {
                for (auto& val : model)
                    val = val == LBool::kTrue ? LBool::kFalse : LBool::kTrue;
            }
            if (!model_satisfies(work, model)) {
                resilience_counters().garbage_rejected.fetch_add(
                    1, std::memory_order_relaxed);
                return Attempt::kFailed;
            }
            model_ = std::move(model);
            stats_ += b.stats();
            *verdict = Result::kSat;
            return Attempt::kVerdict;
        }
        if (r == Result::kUnsat) {
            // Trusted, like every other path that cannot check proofs.
            if (outright) ok_ = false;
            failed_all_ = !outright;
            stats_ += b.stats();
            *verdict = Result::kUnsat;
            return Attempt::kVerdict;
        }
        // kUnknown. The caller stopping us is not a backend failure.
        if (stop_requested()) return Attempt::kStopped;
        if (in_process) {
            // In-tree backends do not crash: kUnknown means the conflict
            // budget or the attempt's wall-clock ran out -- a legitimate
            // outcome the engine loop knows how to continue from.
            stats_ += b.stats();
            *verdict = Result::kUnknown;
            return Attempt::kVerdict;
        }
        // External kUnknown with no stop cause: crash, hang (reaped by
        // the attempt timeout) or garbage. Retry.
        return Attempt::kFailed;
    }

    /// Exponential backoff with deterministic jitter, interruptible in
    /// 2ms slices, never sleeping past the overall deadline.
    void backoff(uint32_t attempt, double timeout_s, const Timer& overall) {
        double delay = opts_.backoff_base_s;
        for (uint32_t i = 0; i < attempt; ++i) delay *= 2;
        delay = std::min(delay, opts_.backoff_max_s);
        // +/-25% jitter from a private splitmix64 stream.
        jitter_state_ = mix64(jitter_state_);
        const double unit =
            static_cast<double>(jitter_state_ >> 11) / 9007199254740992.0;
        delay *= 0.75 + 0.5 * unit;
        Timer slept;
        while (slept.seconds() < delay) {
            if (stop_requested()) return;
            if (timeout_s >= 0 && overall.seconds() >= timeout_s) return;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    std::vector<SolverSpec> chain_;
    ResilienceOptions opts_;
    Cnf buffer_;
    bool ok_ = true;
    bool failed_all_ = false;
    std::vector<Lit> assumptions_;
    std::vector<LBool> model_;
    Solver::Stats stats_;
    std::atomic<bool> interrupted_{false};
    std::function<bool()> terminate_cb_;
    uint64_t jitter_state_ = 0x243F6A8885A308D3ull;  // fixed: deterministic
};

}  // namespace

::bosphorus::Result<std::unique_ptr<SolverBackend>> make_resilient_backend(
    const std::string& arg) {
    if (trim(arg).empty())
        return Status::invalid_argument(
            "resilient needs a chain: use "
            "\"resilient:<primary>[,<fallback>...][,retries=N]"
            "[,attempt-timeout=S][,backoff=S]\"");

    ResilienceOptions opts;
    std::vector<SolverSpec> chain;
    size_t pos = 0;
    while (pos <= arg.size()) {
        size_t comma = arg.find(',', pos);
        if (comma == std::string::npos) comma = arg.size();
        const std::string entry = trim(arg.substr(pos, comma - pos));
        pos = comma + 1;
        if (entry.empty()) continue;
        Status option_error;
        if (parse_option(entry, opts, option_error)) {
            if (!option_error.ok()) return option_error;
            continue;
        }
        const SolverSpec spec{entry};
        if (spec.backend_name() == "resilient")
            return Status::invalid_argument(
                "resilient: chains do not nest ('" + entry + "')");
        chain.emplace_back(spec);
    }
    if (chain.empty())
        return Status::invalid_argument(
            "resilient: the chain names no backend");

    // Guarantee a known-good floor: without an in-tree entry, degrading
    // from a dead external solver would have nowhere to land.
    bool has_in_process = false;
    for (const auto& s : chain)
        has_in_process = has_in_process || is_in_process(s.backend_name());
    if (!has_in_process) chain.emplace_back(SolverSpec{"cms"});

    // Fail fast only when NOTHING in the chain can be instantiated; a
    // typo'd primary with a healthy fallback is exactly what this
    // decorator exists to survive.
    Status first_error;
    bool any_ok = false;
    for (const auto& s : chain) {
        auto probe = BackendRegistry::global().create(s);
        if (probe.ok()) {
            any_ok = true;
            break;
        }
        if (first_error.ok()) first_error = probe.status();
    }
    if (!any_ok)
        return Status::invalid_argument(
            "resilient: no chain entry is usable (first error: " +
            first_error.message() + ")");

    return std::unique_ptr<SolverBackend>(
        new ResilientBackend(std::move(chain), opts));
}

}  // namespace bosphorus::sat
