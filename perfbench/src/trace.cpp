#include "trace.h"

#include <cstdio>
#include <mutex>
#include <utility>
#include <vector>

#include "anf/monomial_store.h"
#include "sat/inprocess/inprocess.h"
#include "util/timer.h"

namespace perfbench {

using namespace bosphorus;

namespace {

class TimedTechnique final : public Technique {
public:
    TimedTechnique(std::unique_ptr<Technique> inner, LoopTallies* tallies)
        : inner_(std::move(inner)), tally_(&(*tallies)[inner_->name()]) {}

    std::string name() const override { return inner_->name(); }

    StepReport step(core::AnfSystem& sys, FactSink& sink) override {
        const size_t seen0 = sink.seen(), fresh0 = sink.fresh();
        const Timer timer;
        StepReport r = inner_->step(sys, sink);
        tally_->step_s += timer.seconds();
        tally_->steps += 1;
        tally_->seen += sink.seen() - seen0 + r.facts_seen;
        tally_->fresh += sink.fresh() - fresh0 + r.facts_fresh;
        return r;
    }

    void begin_run() override { inner_->begin_run(); }
    void reset_for_resolve() override { inner_->reset_for_resolve(); }

    void bind_base(const std::vector<anf::Polynomial>& base,
                   size_t num_vars) override {
        const Timer timer;
        inner_->bind_base(base, num_vars);
        tally_->bind_s += timer.seconds();
    }

private:
    std::unique_ptr<Technique> inner_;
    StepTally* tally_;  // a node of the caller's map: stable address
};

class TimedBackend final : public sat::SolverBackend {
public:
    explicit TimedBackend(std::unique_ptr<sat::SolverBackend> inner)
        : inner_(std::move(inner)) {}

    std::string name() const override { return inner_->name(); }

    void ensure_vars(size_t n) override {
        const Timer timer;
        inner_->ensure_vars(n);
        backend_tally().load_s += timer.seconds();
    }
    size_t num_vars() const override { return inner_->num_vars(); }

    bool add_clause(const std::vector<sat::Lit>& lits) override {
        const Timer timer;
        const bool ok = inner_->add_clause(lits);
        backend_tally().load_s += timer.seconds();
        return ok;
    }
    bool add_xor(const sat::XorConstraint& x) override {
        const Timer timer;
        const bool ok = inner_->add_xor(x);
        backend_tally().load_s += timer.seconds();
        return ok;
    }

    void assume(sat::Lit l) override { inner_->assume(l); }

    sat::Result solve(int64_t conflict_budget, double timeout_s) override {
        const sat::Solver::Stats before = inner_->stats();
        const Timer timer;
        const sat::Result r = inner_->solve(conflict_budget, timeout_s);
        BackendTally& t = backend_tally();
        t.solve_s += timer.seconds();
        t.calls += 1;
        const sat::Solver::Stats after = inner_->stats();
        t.conflicts += after.conflicts - before.conflicts;
        t.propagations += after.propagations - before.propagations;
        return r;
    }

    sat::LBool value(sat::Var v) const override { return inner_->value(v); }
    bool failed(sat::Lit a) const override { return inner_->failed(a); }
    bool okay() const override { return inner_->okay(); }
    void interrupt() override { inner_->interrupt(); }
    void clear_interrupt() override { inner_->clear_interrupt(); }
    void set_terminate_callback(std::function<bool()> cb) override {
        inner_->set_terminate_callback(std::move(cb));
    }
    sat::Solver::Stats stats() const override { return inner_->stats(); }
    bool supports_assumptions() const override {
        return inner_->supports_assumptions();
    }
    bool supports_native_xor() const override {
        return inner_->supports_native_xor();
    }
    std::vector<sat::Lit> learnt_units() const override {
        return inner_->learnt_units();
    }
    std::vector<std::array<sat::Lit, 2>> learnt_binaries() const override {
        return inner_->learnt_binaries();
    }

private:
    std::unique_ptr<sat::SolverBackend> inner_;
};

}  // namespace

std::unique_ptr<Technique> make_timed_technique(
    std::unique_ptr<Technique> inner, LoopTallies* tallies) {
    return std::make_unique<TimedTechnique>(std::move(inner), tallies);
}

BackendTally& backend_tally() {
    static BackendTally tally;
    return tally;
}

std::string timed_backend_spec(const std::string& inner) {
    static std::once_flag once;
    std::call_once(once, [] {
        const Status st = sat::BackendRegistry::global().register_backend(
            {"timed", "perfbench timing decorator: timed:<spec>", false},
            [](const std::string& arg)
                -> Result<std::unique_ptr<sat::SolverBackend>> {
                auto inner = sat::BackendRegistry::global().create(arg);
                if (!inner.ok()) return inner.status();
                return std::unique_ptr<sat::SolverBackend>(
                    std::make_unique<TimedBackend>(std::move(*inner)));
            });
        if (!st.ok())
            std::fprintf(stderr, "perfbench: cannot register backend: %s\n",
                         st.to_string().c_str());
    });
    return "timed:" + inner;
}

GlobalCounters GlobalCounters::now() {
    const sat::inprocess::InprocessCounters& c = sat::inprocess::counters();
    const anf::MonomialStore::Stats s = anf::MonomialStore::global().stats();
    GlobalCounters g;
    g.vivify_passes = c.vivify_passes.load();
    g.vivified_clauses = c.vivified_clauses.load();
    g.db_reductions = c.db_reductions.load();
    g.reconf_decisions = c.reconf_decisions.load();
    g.store_entries = s.entries;
    g.memo_hits = s.mul_memo_hits;
    g.memo_misses = s.mul_memo_misses;
    return g;
}

GlobalCounters& GlobalCounters::operator+=(const GlobalCounters& o) {
    vivify_passes += o.vivify_passes;
    vivified_clauses += o.vivified_clauses;
    db_reductions += o.db_reductions;
    reconf_decisions += o.reconf_decisions;
    store_entries += o.store_entries;
    memo_hits += o.memo_hits;
    memo_misses += o.memo_misses;
    return *this;
}

GlobalCounters GlobalCounters::operator-(const GlobalCounters& o) const {
    GlobalCounters d;
    d.vivify_passes = vivify_passes - o.vivify_passes;
    d.vivified_clauses = vivified_clauses - o.vivified_clauses;
    d.db_reductions = db_reductions - o.db_reductions;
    d.reconf_decisions = reconf_decisions - o.reconf_decisions;
    d.store_entries = store_entries - o.store_entries;
    d.memo_hits = memo_hits - o.memo_hits;
    d.memo_misses = memo_misses - o.memo_misses;
    return d;
}

}  // namespace perfbench
