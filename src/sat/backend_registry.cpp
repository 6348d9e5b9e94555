// The SAT back-end registry and the in-tree adapters.
//
// The paper's three Table II back ends are registered SolverBackends over
// sat::Solver:
//
//  - "minisat":  a persistent incremental Solver without native XOR
//    support; assumptions are native (solve_assuming).
//  - "lingeling": SatELite-style preprocessing is destructive, so the
//    adapter buffers everything and runs a cold simplify+solve per call;
//    assumptions degrade to per-solve unit clauses added *before*
//    preprocessing.
//  - "cms": a persistent incremental Solver with native XOR + level-0
//    Gauss-Jordan; clauses added before the first solve additionally go
//    through recover_xors (CryptoMiniSat-style XOR detection).
//
// make_native_backend wraps the same persistent adapter, unregistered,
// around a caller-supplied Solver::Config: it is the in-loop SAT step's
// solver when no backend spec is configured. The "dimacs-exec"
// external-process backend lives in dimacs_exec.cpp and is registered
// here alongside the in-tree three.
#include "bosphorus/sat_backend.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "sat/dimacs_exec.h"
#include "sat/preprocess.h"
#include "util/timer.h"

namespace bosphorus::sat {

// ---- SolverSpec ------------------------------------------------------------

std::string SolverSpec::backend_name() const {
    const size_t colon = spec.find(':');
    return colon == std::string::npos ? spec : spec.substr(0, colon);
}

std::string SolverSpec::argument() const {
    const size_t colon = spec.find(':');
    return colon == std::string::npos ? std::string() : spec.substr(colon + 1);
}

// ---- SolverBackend ---------------------------------------------------------

bool SolverBackend::load(const Cnf& cnf) {
    ensure_vars(cnf.num_vars);
    for (const auto& cl : cnf.clauses) {
        if (!add_clause(cl)) return false;
    }
    for (const auto& x : cnf.xors) {
        if (!add_xor(x)) return false;
    }
    return okay();
}

namespace {

// ---- "minisat" / "cms" / native: persistent incremental adapter -----------

/// One persistent Solver built from `cfg`, native assumptions via
/// solve_assuming, facts forwarded straight from the solver. The CMS
/// flavor adds one-shot XOR recovery over the clauses buffered before the
/// first solve.
class InTreeBackend final : public SolverBackend {
public:
    InTreeBackend(std::string name, const Solver::Config& cfg, bool recover)
        : name_(std::move(name)),
          solver_(std::make_unique<Solver>(cfg)),
          recover_pending_(recover),
          native_xor_(cfg.enable_xor) {}

    std::string name() const override { return name_; }

    void ensure_vars(size_t n) override {
        while (solver_->num_vars() < n) solver_->new_var();
    }
    size_t num_vars() const override { return solver_->num_vars(); }

    bool add_clause(const std::vector<Lit>& lits) override {
        if (recover_pending_) preload_clauses_.push_back(lits);
        return solver_->add_clause(lits);
    }

    bool add_xor(const XorConstraint& x) override {
        // Native XORs arriving before the first solve disable recovery:
        // it only runs over pure-clause input.
        recover_pending_ = false;
        preload_clauses_.clear();
        preload_clauses_.shrink_to_fit();
        return solver_->add_xor(x);
    }

    void assume(Lit l) override { assumptions_.push_back(l); }

    Result solve(int64_t conflict_budget, double timeout_s) override {
        if (recover_pending_) {
            // First solve: CryptoMiniSat-style XOR detection over every
            // clause added so far (they stay in place as clauses).
            recover_pending_ = false;
            Cnf probe;
            probe.num_vars = solver_->num_vars();
            probe.clauses = std::move(preload_clauses_);
            for (const auto& x : recover_xors(probe)) {
                if (!solver_->add_xor(x)) break;
            }
            preload_clauses_.clear();
            preload_clauses_.shrink_to_fit();
        }
        last_assumptions_ = std::move(assumptions_);
        assumptions_.clear();
        const Result r = solver_->solve_assuming(
            last_assumptions_, conflict_budget, timeout_s);
        last_refuted_ = (r == Result::kUnsat) && solver_->okay();
        return r;
    }

    LBool value(Var v) const override {
        const auto& model = solver_->model();
        if (v >= model.size() || model[v] == LBool::kUndef)
            return LBool::kFalse;
        return model[v];
    }

    /// Sound over-approximation: the in-tree solver only records the
    /// *first* refuted assumption (earlier ones may have propagated into
    /// the refutation), so every assumption of a refuted call is blamed
    /// -- the contract allows over- but never under-approximation.
    bool failed(Lit a) const override {
        if (!solver_->okay()) return true;  // refuted with or without `a`
        if (!last_refuted_) return false;
        return std::find(last_assumptions_.begin(), last_assumptions_.end(),
                         a) != last_assumptions_.end();
    }

    bool okay() const override { return solver_->okay(); }

    void interrupt() override { solver_->interrupt(); }
    void clear_interrupt() override { solver_->clear_interrupt(); }
    void set_terminate_callback(std::function<bool()> cb) override {
        solver_->set_terminate_callback(std::move(cb));
    }

    Solver::Stats stats() const override { return solver_->stats(); }

    bool supports_assumptions() const override { return true; }
    bool supports_native_xor() const override { return native_xor_; }

    std::vector<Lit> learnt_units() const override {
        return solver_->learnt_units();
    }
    std::vector<std::array<Lit, 2>> learnt_binaries() const override {
        return solver_->learnt_binaries();
    }

private:
    std::string name_;
    std::unique_ptr<Solver> solver_;
    std::vector<Lit> assumptions_;       // pending, for the next solve only
    std::vector<Lit> last_assumptions_;  // of the last solve, for failed()
    bool last_refuted_ = false;  // last solve: kUnsat under assumptions
    std::vector<std::vector<Lit>> preload_clauses_;  // recovery input
    bool recover_pending_ = false;
    bool native_xor_ = false;
};

// ---- "lingeling": cold preprocessing adapter -------------------------------

/// Preprocessing (SatELite-style subsumption + BVE) is destructive and
/// model-changing, so it cannot wrap a persistent solver: this adapter
/// buffers the formula and pays a full simplify + solve per call.
/// Assumptions degrade to unit clauses appended to the buffered CNF
/// before preprocessing -- verdict-equivalent, never warm.
class LingelingLikeBackend final : public SolverBackend {
public:
    std::string name() const override { return "lingeling"; }

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
        failed_all_ = false;  // only the solve below may re-establish it
        if (interrupted_.load(std::memory_order_acquire))
            return Result::kUnknown;
        if (!ok_) return Result::kUnsat;

        Cnf work = buffer_;
        for (const Lit a : assumptions) work.add_clause({a});

        Preprocessor prep;
        if (!prep.simplify(work)) {
            // UNSAT of buffer + assumption units: outright only when no
            // assumptions were in play.
            if (assumptions.empty()) ok_ = false;
            failed_all_ = !assumptions.empty();
            return Result::kUnsat;
        }

        Solver solver;
        solver.set_terminate_callback([this] {
            if (interrupted_.load(std::memory_order_acquire)) return true;
            return terminate_cb_ && terminate_cb_();
        });
        Result r = Result::kUnsat;
        if (solver.load(work)) {
            r = solver.solve(conflict_budget, timeout_s);
        }
        stats_ += solver.stats();
        if (r == Result::kUnsat) {
            if (assumptions.empty()) ok_ = false;
            failed_all_ = !assumptions.empty();
        } else if (r == Result::kSat) {
            model_ = solver.model();
            model_.resize(std::max(model_.size(), buffer_.num_vars),
                          LBool::kFalse);
            prep.extend_model(model_);
            for (auto& v : model_)
                if (v == LBool::kUndef) v = LBool::kFalse;
        }
        // Facts learnt while assumption units were baked into the formula
        // are conditional on them -- only assumption-free solves export.
        if (assumptions.empty()) harvest(solver);
        return r;
    }

    LBool value(Var v) const override {
        return v < model_.size() ? model_[v] : LBool::kFalse;
    }

    /// Conservative over-approximation: a refuted assumption-carrying
    /// solve reports every assumption as failed (the degraded cold path
    /// cannot attribute the conflict).
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

    std::vector<Lit> learnt_units() const override { return units_; }
    std::vector<std::array<Lit, 2>> learnt_binaries() const override {
        return binaries_;
    }

private:
    void harvest(const Solver& solver) {
        for (const Lit u : solver.learnt_units()) {
            if (units_seen_.insert(u.raw()).second) units_.push_back(u);
        }
        for (const auto& b : solver.learnt_binaries()) {
            const Lit lo = std::min(b[0], b[1]), hi = std::max(b[0], b[1]);
            const uint64_t key =
                (static_cast<uint64_t>(lo.raw()) << 32) | hi.raw();
            if (binaries_seen_.insert(key).second) binaries_.push_back(b);
        }
    }

    Cnf buffer_;
    bool ok_ = true;
    bool failed_all_ = false;
    std::vector<Lit> assumptions_;
    std::vector<LBool> model_;
    Solver::Stats stats_;
    std::atomic<bool> interrupted_{false};
    std::function<bool()> terminate_cb_;
    std::vector<Lit> units_;
    std::unordered_set<uint32_t> units_seen_;
    std::vector<std::array<Lit, 2>> binaries_;
    std::unordered_set<uint64_t> binaries_seen_;
};

/// Reject arguments on backends that take none ("minisat:foo" is a typo,
/// not a request).
Status no_argument(const std::string& name, const std::string& arg) {
    if (arg.empty()) return Status();
    return Status::invalid_argument("backend '" + name +
                                    "' takes no ':<argument>' (got '" + arg +
                                    "')");
}

}  // namespace

std::unique_ptr<SolverBackend> make_native_backend(const Solver::Config& cfg) {
    return std::make_unique<InTreeBackend>("native", cfg, /*recover=*/false);
}

// ---- BackendRegistry -------------------------------------------------------

BackendRegistry& BackendRegistry::global() {
    static BackendRegistry* registry = [] {
        auto* r = new BackendRegistry();
        const auto add = [&](const char* name, const char* description,
                             Factory factory) {
            r->entries_.emplace_back(
                BackendInfo{name, description, /*builtin=*/true},
                std::move(factory));
        };
        add("minisat", "plain CDCL (MiniSat 2.2 stand-in), incremental",
            [](const std::string& arg)
                -> ::bosphorus::Result<std::unique_ptr<SolverBackend>> {
                const Status s = no_argument("minisat", arg);
                if (!s.ok()) return s;
                return std::unique_ptr<SolverBackend>(new InTreeBackend(
                    "minisat", Solver::Config{}, /*recover=*/false));
            });
        add("lingeling",
            "CDCL + SatELite-style preprocessing; cold per solve",
            [](const std::string& arg)
                -> ::bosphorus::Result<std::unique_ptr<SolverBackend>> {
                const Status s = no_argument("lingeling", arg);
                if (!s.ok()) return s;
                return std::unique_ptr<SolverBackend>(
                    new LingelingLikeBackend());
            });
        add("cms",
            "CDCL + native XOR, Gauss-Jordan and XOR recovery "
            "(CryptoMiniSat5 stand-in), incremental",
            [](const std::string& arg)
                -> ::bosphorus::Result<std::unique_ptr<SolverBackend>> {
                const Status s = no_argument("cms", arg);
                if (!s.ok()) return s;
                Solver::Config cfg;
                cfg.enable_xor = true;
                return std::unique_ptr<SolverBackend>(
                    new InTreeBackend("cms", cfg, /*recover=*/true));
            });
        add("dimacs-exec",
            "external DIMACS solver process: dimacs-exec:<command>",
            [](const std::string& arg)
                -> ::bosphorus::Result<std::unique_ptr<SolverBackend>> {
                return make_dimacs_exec_backend(arg);
            });
        add("resilient",
            "retry/fallback decorator: resilient:<primary>[,<fallback>...]"
            "[,retries=N][,attempt-timeout=S][,backoff=S]",
            [](const std::string& arg)
                -> ::bosphorus::Result<std::unique_ptr<SolverBackend>> {
                return make_resilient_backend(arg);
            });
        return r;
    }();
    return *registry;
}

Status BackendRegistry::register_backend(BackendInfo info, Factory factory) {
    if (info.name.empty())
        return Status::invalid_argument("backend name must not be empty");
    if (info.name.find(':') != std::string::npos)
        return Status::invalid_argument(
            "backend name must not contain ':' (the spec separator): '" +
            info.name + "'");
    if (!factory)
        return Status::invalid_argument("backend '" + info.name +
                                        "' needs a factory");
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [existing, _] : entries_) {
        if (existing.name == info.name)
            return Status::invalid_argument("backend '" + info.name +
                                            "' is already registered");
    }
    entries_.emplace_back(std::move(info), std::move(factory));
    return Status();
}

::bosphorus::Result<std::unique_ptr<SolverBackend>> BackendRegistry::create(
    const SolverSpec& spec) const {
    const std::string name = spec.backend_name();
    Factory factory;
    std::string known;
    {
        // One critical section for the lookup AND the known-name snapshot:
        // re-acquiring the lock to build the error message would let a
        // concurrent register_backend() slip a name into "registered: ..."
        // that this lookup never consulted (or hide one it did).
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& [info, f] : entries_) {
            if (info.name == name) {
                factory = f;
                break;
            }
            if (!known.empty()) known += ", ";
            known += info.name;
        }
    }
    if (!factory) {
        return Status::invalid_argument("unknown solver backend '" + name +
                                        "' (registered: " + known + ")");
    }
    return factory(spec.argument());
}

std::vector<BackendInfo> BackendRegistry::list() const {
    // An atomic snapshot: the whole table is copied under the registry
    // lock, so a listing (e.g. --list-solvers) racing register_backend()
    // observes either all of a registration or none of it, in
    // registration order -- never a partially-updated table.
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<BackendInfo> out;
    out.reserve(entries_.size());
    for (const auto& [info, _] : entries_) out.push_back(info);
    return out;
}

bool BackendRegistry::contains(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [info, _] : entries_) {
        if (info.name == name) return true;
    }
    return false;
}

// ---- solve_cnf_with --------------------------------------------------------

::bosphorus::Result<CnfSolveOutcome> solve_cnf_with(const Cnf& cnf, const SolverSpec& spec,
                                       double timeout_s,
                                       int64_t conflict_budget) {
    Timer timer;
    ::bosphorus::Result<std::unique_ptr<SolverBackend>> backend =
        BackendRegistry::global().create(spec);
    if (!backend.ok()) return backend.status();

    CnfSolveOutcome out;
    SolverBackend& b = **backend;
    if (!b.load(cnf)) {
        out.result = Result::kUnsat;
        out.stats = b.stats();
        out.seconds = timer.seconds();
        return out;
    }
    out.result = b.solve(conflict_budget, timeout_s);
    out.stats = b.stats();
    if (out.result == Result::kSat) {
        out.model.resize(cnf.num_vars, LBool::kFalse);
        for (Var v = 0; v < cnf.num_vars; ++v) out.model[v] = b.value(v);
    }
    out.seconds = timer.seconds();
    return out;
}

}  // namespace bosphorus::sat
