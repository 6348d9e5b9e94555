/// \file
/// The pluggable SAT back-end layer: an IPASIR-style abstract solver
/// interface (`SolverBackend`) and a process-global named registry
/// (`BackendRegistry`).
///
/// The paper's central evaluation (Table II) runs Bosphorus in front of
/// *interchangeable* CDCL back ends (MiniSat, Lingeling, CryptoMiniSat).
/// This header makes that axis a first-class, open API: every place the
/// library hands a CNF to a SAT solver -- the one-shot
/// `bosphorus::solve()` back end, the in-loop conflict-bounded SAT
/// technique, a `Session`'s persistent warm solver, portfolio entries --
/// goes through a `SolverBackend`, created from a `SolverSpec` by the
/// registry or, for the in-loop step's default solver, by
/// `make_native_backend()`.
///
/// Built-in backends (always registered):
///
///   - `"minisat"`   -- plain CDCL (the MiniSat 2.2 stand-in), incremental.
///   - `"lingeling"` -- CDCL + SatELite-style preprocessing. Preprocessing
///                      is destructive, so every solve() is cold: the
///                      backend re-simplifies its buffered clauses and
///                      degrades assumptions to per-solve unit clauses.
///   - `"cms"`       -- CDCL + native XOR propagation + level-0
///                      Gauss-Jordan elimination, with CryptoMiniSat-style
///                      XOR recovery from the clauses added before the
///                      first solve. Incremental.
///   - `"dimacs-exec"` -- an external-process bridge: the spec
///                      `"dimacs-exec:<cmd>"` shells out to any
///                      SAT-competition-conformant solver binary (DIMACS
///                      in, `s SATISFIABLE`/`s UNSATISFIABLE` + `v` lines
///                      out), killing the child on timeout or interrupt.
///
/// Thread safety: the registry is internally synchronised (register,
/// create and list may race freely). A backend instance, like the solvers
/// it wraps, belongs to one thread at a time -- with the single exception
/// of `interrupt()`, which is async-safe by contract so another thread
/// can stop a running solve (this is what portfolio first-finisher
/// cancellation uses).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bosphorus/status.h"
#include "sat/solve_cnf.h"
#include "sat/solver.h"
#include "sat/types.h"

/// \namespace bosphorus::sat
/// SAT-level types of the public API: the core literal/CNF vocabulary
/// (sat/types.h), the CNF-level solve outcome, and -- from this header
/// -- the pluggable back-end interface and registry.
namespace bosphorus::sat {

/// Names one solver back end, e.g. `"cms"` or `"dimacs-exec:kissat -q"`.
///
/// The part before the first `':'` selects the registry entry; anything
/// after it is the backend's argument (the command line, for
/// `dimacs-exec`). Implicitly constructible from strings, so APIs take
/// a `SolverSpec` and callers write `cfg.solver = "minisat";`.
struct SolverSpec {
    /// The full specification string, `<backend>[:<argument>]`.
    std::string spec = kDefaultSolverName;

    /// The default back end ("cms", matching the CLI's documented default).
    SolverSpec() = default;
    /// Wrap a specification string (implicit by design).
    SolverSpec(std::string s) : spec(std::move(s)) {}  // NOLINT: implicit
    /// Wrap a C-string specification (implicit by design).
    SolverSpec(const char* s) : spec(s) {}  // NOLINT: implicit

    /// The registry name: everything before the first ':'.
    std::string backend_name() const;
    /// The backend argument: everything after the first ':' (may itself
    /// contain ':'); empty when the spec has no argument.
    std::string argument() const;

    /// Structural equality on the spec string.
    bool operator==(const SolverSpec& o) const { return spec == o.spec; }
};

/// An abstract incremental SAT solver, IPASIR-style: add clauses, assume
/// literals, solve, read values, query failed assumptions, interrupt.
///
/// Contract:
///  - `assume()`d literals constrain only the *next* `solve()` call (they
///    are cleared by it), exactly like IPASIR assumptions. Backends
///    without native assumption support (`supports_assumptions()` false)
///    degrade them to per-solve unit clauses over a cold solve -- the
///    verdict is the same, warm-start savings and exact `failed()`
///    reporting are not.
///  - After a kUnsat solve under assumptions with `okay()` still true,
///    `failed(a)` tells whether assumption `a` was (possibly) used to
///    derive the refutation. Backends may over-approximate (report every
///    assumption) but never under-approximate. Failed assumptions never
///    poison the instance: the backend stays usable and later solves
///    without (or with different) assumptions behave as if the failed
///    call never happened.
///  - `interrupt()` is sticky, async-safe, and makes a running (and any
///    subsequent) solve return kUnknown until `clear_interrupt()`.
class SolverBackend {
public:
    virtual ~SolverBackend() = default;

    /// The registry name this backend was created under (e.g. "cms").
    virtual std::string name() const = 0;

    /// Grow the variable space to at least `n` variables.
    virtual void ensure_vars(size_t n) = 0;
    /// Number of variables the backend currently knows about.
    virtual size_t num_vars() const = 0;

    /// Add a clause (variables must exist). Returns false iff the formula
    /// is now known UNSAT outright (okay() turns false).
    virtual bool add_clause(const std::vector<Lit>& lits) = 0;
    /// Add an XOR constraint; backends without native XOR support expand
    /// it into clauses. Returns false iff the formula is now known UNSAT.
    virtual bool add_xor(const XorConstraint& x) = 0;

    /// Assume `l` for the next solve() only (see the class contract).
    virtual void assume(Lit l) = 0;

    /// Solve under the pending assumptions, a conflict budget (< 0:
    /// unbounded; backends that cannot bound by conflicts ignore it) and
    /// a wall-clock timeout in seconds (< 0: none). kUnknown on budget /
    /// timeout / interrupt.
    virtual Result solve(int64_t conflict_budget = -1,
                         double timeout_s = -1.0) = 0;

    /// After a kSat solve: the value of `v` in the model (kFalse for
    /// variables the backend's model does not cover).
    virtual LBool value(Var v) const = 0;
    /// After a kUnsat solve under assumptions: whether assumption `a` was
    /// (possibly) used to refute them. See the class contract.
    virtual bool failed(Lit a) const = 0;

    /// False once the formula is UNSAT outright (no assumptions needed).
    virtual bool okay() const = 0;

    /// Ask a running solve (possibly on another thread) to stop; sticky
    /// until clear_interrupt(). The only member that is async-safe.
    virtual void interrupt() = 0;
    /// Re-arm after interrupt().
    virtual void clear_interrupt() = 0;
    /// Install a callback polled during solve(); returning true stops the
    /// search with kUnknown (the IPASIR terminate hook). Runs on the
    /// solving thread; nullptr removes it.
    virtual void set_terminate_callback(std::function<bool()> cb) = 0;

    /// Cumulative search statistics (all zero for backends that cannot
    /// report them, e.g. external processes).
    virtual Solver::Stats stats() const = 0;

    /// True iff assume() is native (warm) rather than degraded to unit
    /// clauses over a cold solve.
    virtual bool supports_assumptions() const { return true; }
    /// True iff add_xor() is handled natively (no clause expansion).
    virtual bool supports_native_xor() const { return false; }

    /// Unit literals this backend has learnt (or implied at level 0),
    /// accumulated across solves -- the facts the Bosphorus loop harvests.
    /// Backends that cannot export them return an empty vector.
    virtual std::vector<Lit> learnt_units() const { return {}; }
    /// Learnt binary clauses, deduplicated, accumulated across solves.
    /// Backends that cannot export them return an empty vector.
    virtual std::vector<std::array<Lit, 2>> learnt_binaries() const {
        return {};
    }

    /// Convenience: ensure_vars + add_clause/add_xor over a whole CNF.
    /// Returns false iff the formula became UNSAT outright while loading.
    bool load(const Cnf& cnf);
};

/// One registry entry's metadata, as returned by BackendRegistry::list().
struct BackendInfo {
    std::string name;         ///< registry name ("cms", "dimacs-exec", ...)
    std::string description;  ///< one-line human-readable summary
    bool builtin = false;     ///< shipped with the library vs user-registered
};

/// Per-backend circuit-breaker health accounting, shared by every
/// `ResilientBackend` in the process (it lives in `BackendRegistry`).
///
/// Classic three-state breaker, keyed by registry backend name:
///
///   - **closed**: requests flow; `failure_threshold` *consecutive*
///     failures open the circuit.
///   - **open**: `allow()` denies everything until `open_cooldown_s` of
///     wall-clock has passed, then admits exactly one half-open probe.
///   - **half-open**: one probe in flight; success closes the circuit,
///     failure re-opens it (and restarts the cooldown).
///
/// ResilientBackend consults `allow()` before each fallback-chain entry
/// (the final, known-good entry is exempt -- degrading must always have
/// somewhere to go) and feeds outcomes back via `record_*`. The METRICS
/// verb surfaces `snapshot()` as `circuit.<backend>.*` lines.
class HealthTracker {
public:
    enum class CircuitState : uint8_t { kClosed, kOpen, kHalfOpen };

    struct Config {
        uint32_t failure_threshold = 3;  ///< consecutive failures to open
        double open_cooldown_s = 5.0;    ///< open -> half-open probe delay
    };

    /// One backend's health, as returned by snapshot().
    struct Snapshot {
        std::string backend;
        CircuitState state = CircuitState::kClosed;
        uint64_t successes = 0;
        uint64_t failures = 0;
        uint64_t consecutive_failures = 0;
        uint64_t opens = 0;  ///< times the circuit transitioned to open
    };

    /// Replace the breaker thresholds (applies to future transitions).
    void set_config(Config cfg);
    Config config() const;

    /// May a request go to `backend` now? Open circuits deny until the
    /// cooldown elapses, then this call itself admits the single
    /// half-open probe (callers need no separate probe API).
    bool allow(const std::string& backend);

    void record_success(const std::string& backend);
    void record_failure(const std::string& backend);

    /// All tracked backends, sorted by name.
    std::vector<Snapshot> snapshot() const;

    /// Total circuit-open transitions across all backends.
    uint64_t total_opens() const;

    /// Forget everything (tests).
    void reset();

    /// The state's wire name: "closed" / "open" / "half-open".
    static const char* state_name(CircuitState s);

private:
    struct Entry {
        CircuitState state = CircuitState::kClosed;
        uint64_t successes = 0;
        uint64_t failures = 0;
        uint64_t consecutive_failures = 0;
        uint64_t opens = 0;
        double opened_at_s = 0;  ///< monotonic stamp of the last open
    };

    mutable std::mutex mu_;
    Config cfg_;
    std::vector<std::pair<std::string, Entry>> entries_;  // few, linear scan
};

/// Process-global counters of what the resilience layer did, surfaced in
/// bosphorusd METRICS (`resilience.*`) and bench output. Monotonic.
struct ResilienceCounters {
    std::atomic<uint64_t> attempts{0};          ///< underlying solve attempts
    std::atomic<uint64_t> retries{0};           ///< re-attempts after failure
    std::atomic<uint64_t> fallbacks{0};         ///< chain entries given up on
    std::atomic<uint64_t> garbage_rejected{0};  ///< models failing verification
    std::atomic<uint64_t> exhausted{0};         ///< solves with no verdict left
};

/// The process-global counter block (never reset in production).
ResilienceCounters& resilience_counters();

/// Options parsed from the `resilient:` spec argument.
struct ResilienceOptions {
    uint32_t max_attempts = 3;        ///< per chain entry (1 = no retries)
    double attempt_timeout_s = -1.0;  ///< per attempt; <0: remaining budget
    double backoff_base_s = 0.01;     ///< first retry delay
    double backoff_max_s = 0.25;      ///< delay ceiling
};

/// Build the `resilient:` decorator from its spec argument -- a
/// comma-separated fallback chain of solver specs, optionally followed by
/// `retries=N` / `attempt-timeout=S` / `backoff=S` options, e.g.
/// `"resilient:dimacs-exec:kissat -q,cms,retries=2,attempt-timeout=5"`.
/// When no chain entry is an in-tree backend, "cms" is appended as the
/// known-good final fallback. Fails with kInvalidArgument when the chain
/// is empty, nests `resilient`, or no entry can be instantiated.
::bosphorus::Result<std::unique_ptr<SolverBackend>> make_resilient_backend(
    const std::string& arg);

/// The built-in CDCL solver behind the interface, configured in full by
/// `cfg` (native XOR, in-processing profile, restart unit, learnt-DB
/// knobs). `name()` is `"native"`, assumptions are native, and no XOR
/// recovery runs: callers hand it native XORs directly. Not registered --
/// it is the in-loop SAT step's solver when no backend spec is
/// configured, not a user-selectable back end.
std::unique_ptr<SolverBackend> make_native_backend(const Solver::Config& cfg);

/// The process-global, thread-safe registry of SAT back-end factories.
///
/// A factory takes the spec argument (the part after ':', empty for plain
/// names) and produces a fresh backend -- or an error Status for a
/// malformed argument. The four built-ins are registered before any
/// lookup; user code may register additional backends at any time (names
/// are first-come-first-served; re-registering an existing name fails).
class BackendRegistry {
public:
    /// Factory signature: `arg` is the spec argument (see SolverSpec).
    using Factory =
        std::function<::bosphorus::Result<std::unique_ptr<SolverBackend>>(
            const std::string& arg)>;

    /// The process-global registry (built-ins pre-registered).
    static BackendRegistry& global();

    /// Register a backend under `info.name`. Fails with kInvalidArgument
    /// when the name is empty, contains ':', or is already taken.
    Status register_backend(BackendInfo info, Factory factory);

    /// Create a fresh backend from `spec`. Fails with kInvalidArgument
    /// when the backend name is unknown or the factory rejects the
    /// argument.
    ::bosphorus::Result<std::unique_ptr<SolverBackend>> create(
        const SolverSpec& spec) const;

    /// All registered backends, in registration order (built-ins first).
    /// The returned vector is an atomic snapshot taken under the registry
    /// lock: a listing racing register_backend() sees either all of a
    /// registration or none of it, never a partially-updated table.
    std::vector<BackendInfo> list() const;

    /// True iff a backend named `name` is registered.
    bool contains(const std::string& name) const;

    /// The process-wide circuit-breaker health state (see HealthTracker).
    HealthTracker& health() { return health_; }
    const HealthTracker& health() const { return health_; }

private:
    BackendRegistry() = default;

    mutable std::mutex mutex_;
    std::vector<std::pair<BackendInfo, Factory>> entries_;
    HealthTracker health_;
};

/// One-call CNF solving through the registry: create a backend from
/// `spec`, load `cnf`, solve with the given wall-clock timeout (< 0:
/// none) and conflict budget (< 0: unbounded), and package the verdict,
/// model (resized to `cnf.num_vars`) and statistics. Errors only on an
/// unknown / malformed spec.
::bosphorus::Result<CnfSolveOutcome> solve_cnf_with(const Cnf& cnf, const SolverSpec& spec,
                                       double timeout_s = -1,
                                       int64_t conflict_budget = -1);

}  // namespace bosphorus::sat
