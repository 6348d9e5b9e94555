// Tests for the public library facade: Problem (incremental + file
// loading), Status/Result propagation, the Engine technique registry with
// interrupt/progress hooks, and the solve() protocol -- all written against
// include/bosphorus/ alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>

#include "anf/anf_parser.h"
#include "bosphorus/bosphorus.h"
#include "core/pipeline.h"
#include "test_util.h"

namespace bosphorus {
namespace {

/// The paper's section II-E worked example; unique solution 1,1,1,1,0.
Problem paper_example() {
    auto p = Problem::from_anf_text(
        "x1*x2 + x3 + x4 + 1\n"
        "x1*x2*x3 + x1 + x3 + 1\n"
        "x1*x3 + x3*x4*x5 + x3\n"
        "x2*x3 + x3*x5 + 1\n"
        "x2*x3 + x5 + 1\n");
    EXPECT_TRUE(p.ok());
    return *p;
}

EngineConfig small_config() {
    EngineConfig cfg;
    cfg.xl.m_budget = 16;
    cfg.elimlin.m_budget = 16;
    cfg.sat_conflicts_start = 1000;
    cfg.sat_conflicts_max = 10'000;
    cfg.sat_conflicts_step = 1000;
    cfg.max_iterations = 8;
    cfg.time_budget_s = 10.0;
    return cfg;
}

// ---- Problem: incremental loading -----------------------------------------

TEST(Problem, StartsEmptyAndFirstAddFixesKind) {
    Problem p;
    EXPECT_EQ(p.kind(), Problem::Kind::kEmpty);
    EXPECT_TRUE(p.empty());

    ASSERT_TRUE(p.add_polynomial(anf::parse_polynomial("x1*x2 + x3")).ok());
    EXPECT_EQ(p.kind(), Problem::Kind::kAnf);
    EXPECT_EQ(p.num_vars(), 3u);
    EXPECT_EQ(p.num_constraints(), 1u);

    // The other family is now rejected, with a structured error.
    const Status s = p.add_clause({sat::mk_lit(0)});
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    const Status x = p.add_xor_clause({0, 1}, true);
    EXPECT_EQ(x.code(), StatusCode::kInvalidArgument);
}

TEST(Problem, IncrementalCnfLoading) {
    Problem p;
    ASSERT_TRUE(p.add_clause({sat::mk_lit(0), sat::mk_lit(1, true)}).ok());
    ASSERT_TRUE(p.add_xor_clause({0, 1, 2}, true).ok());
    EXPECT_EQ(p.kind(), Problem::Kind::kCnf);
    EXPECT_EQ(p.num_vars(), 3u);
    EXPECT_EQ(p.num_constraints(), 2u);
    EXPECT_EQ(p.cnf().clauses.size(), 1u);
    EXPECT_EQ(p.cnf().xors.size(), 1u);

    EXPECT_EQ(p.add_polynomial(anf::Polynomial::variable(0)).code(),
              StatusCode::kInvalidArgument);

    const anf::Var v = p.new_var();
    EXPECT_EQ(v, 3u);
    EXPECT_EQ(p.num_vars(), 4u);
    EXPECT_EQ(p.cnf().num_vars, 4u);

    p.reserve_vars(10);
    EXPECT_EQ(p.num_vars(), 10u);
}

TEST(Problem, IncrementalAnfMatchesBatchConstruction) {
    const auto batch = paper_example();
    Problem inc;
    for (const auto& poly : batch.polynomials())
        ASSERT_TRUE(inc.add_polynomial(poly).ok());
    EXPECT_EQ(inc.num_vars(), batch.num_vars());
    EXPECT_EQ(inc.polynomials(), batch.polynomials());
}

// ---- Problem: loaders and Status propagation ------------------------------

TEST(Problem, MalformedAnfTextYieldsParseError) {
    const auto p = Problem::from_anf_text("x1*x2 + y3\n");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), StatusCode::kParseError);
    EXPECT_NE(p.status().message().find("line 1"), std::string::npos)
        << "message should locate the failure: " << p.status().message();
}

TEST(Problem, MalformedDimacsYieldsParseError) {
    const auto missing_header = Problem::from_cnf_text("1 -2 0\n");
    ASSERT_FALSE(missing_header.ok());
    EXPECT_EQ(missing_header.status().code(), StatusCode::kParseError);

    const auto bad = Problem::from_cnf_text("p dnf 3 1\n1 -2 0\n");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
}

TEST(Problem, MissingFileYieldsIoError) {
    const auto p = Problem::from_anf_file("/nonexistent/no.anf");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), StatusCode::kIoError);
    const auto c = Problem::from_cnf_file("/nonexistent/no.cnf");
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), StatusCode::kIoError);
}

TEST(Problem, FileRoundtrip) {
    const std::string path = ::testing::TempDir() + "facade_roundtrip.cnf";
    {
        std::ofstream out(path);
        out << "p cnf 3 2\n1 -2 0\nx1 2 3 0\n";
    }
    const auto p = Problem::from_cnf_file(path);
    ASSERT_TRUE(p.ok()) << p.status().to_string();
    EXPECT_EQ(p->num_vars(), 3u);
    EXPECT_EQ(p->cnf().clauses.size(), 1u);
    EXPECT_EQ(p->cnf().xors.size(), 1u);
    std::remove(path.c_str());
}

TEST(Status, ToStringAndCodes) {
    EXPECT_EQ(Status().to_string(), "OK");
    const Status s = Status::parse_error("bad token");
    EXPECT_EQ(s.to_string(), "PARSE_ERROR: bad token");
    EXPECT_STREQ(status_code_name(StatusCode::kInterrupted), "INTERRUPTED");
}

// ---- Engine: the default registry and verdicts ----------------------------

TEST(Engine, SolvesPaperExample) {
    Engine engine(small_config());
    const auto names = engine.technique_names();
    ASSERT_EQ(names.size(), 3u) << "default registry: xl, elimlin, sat";
    EXPECT_EQ(names[0], "xl");
    EXPECT_EQ(names[1], "elimlin");
    EXPECT_EQ(names[2], "sat");

    const auto run = engine.run(paper_example());
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(run->verdict, sat::Result::kSat);
    const std::vector<bool> expect{true, true, true, true, false};
    EXPECT_EQ(run->solution, expect);
    EXPECT_GT(run->facts_from("xl"), 0u) << "XL must contribute facts";
    EXPECT_FALSE(run->interrupted);
    EXPECT_FALSE(run->timed_out);
}

TEST(Engine, DetectsUnsatAndEmptyIsSat) {
    Engine engine(small_config());
    const auto unsat = engine.run(
        *Problem::from_anf_text("x1 + x2\nx2 + x3\nx1 + x3 + 1\n"));
    ASSERT_TRUE(unsat.ok());
    EXPECT_EQ(unsat->verdict, sat::Result::kUnsat);

    Problem empty;
    empty.reserve_vars(3);
    const auto sat_run = engine.run(empty);
    ASSERT_TRUE(sat_run.ok());
    EXPECT_EQ(sat_run->verdict, sat::Result::kSat);
}

TEST(Engine, CnfProblemRunsThroughConversion) {
    // An inconsistent XOR cycle: x1^x2=1, x2^x3=1, x1^x3=1.
    Problem p;
    ASSERT_TRUE(p.add_xor_clause({0, 1}, true).ok());
    ASSERT_TRUE(p.add_xor_clause({1, 2}, true).ok());
    ASSERT_TRUE(p.add_xor_clause({0, 2}, true).ok());
    Engine engine(small_config());
    const auto run = engine.run(p);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->verdict, sat::Result::kUnsat);
    EXPECT_EQ(run->num_original_vars, 3u);
}

// ---- conversion sizes the converter cannot honour -------------------------

/// The status of one Engine::run and one Session push/solve under `conv`:
/// both reject a bad config before any conversion runs.
std::pair<StatusCode, StatusCode> run_with_conv(core::Anf2CnfConfig conv) {
    EngineConfig cfg = small_config();
    cfg.conv = conv;
    const Result<Report> run = Engine(cfg).run(paper_example());
    Session session(paper_example(), cfg);
    EXPECT_TRUE(session.push().ok());
    const Result<Report> solved = session.solve();
    return {run.status().code(), solved.status().code()};
}

TEST(Engine, RejectsXorCutBelowThree) {
    core::Anf2CnfConfig conv;
    conv.xor_cut = 2;
    const auto bad = std::make_pair(StatusCode::kInvalidArgument,
                                    StatusCode::kInvalidArgument);
    EXPECT_EQ(run_with_conv(conv), bad);
    conv.xor_cut = 3;
    EXPECT_EQ(run_with_conv(conv),
              std::make_pair(StatusCode::kOk, StatusCode::kOk));
}

TEST(Engine, RejectsXorCutAboveTwentyFour) {
    core::Anf2CnfConfig conv;
    conv.xor_cut = 40;  // plain CNF would need 2^39 clauses per XOR
    const auto bad = std::make_pair(StatusCode::kInvalidArgument,
                                    StatusCode::kInvalidArgument);
    EXPECT_EQ(run_with_conv(conv), bad);
    conv.xor_cut = 25;
    EXPECT_EQ(run_with_conv(conv), bad);
    conv.xor_cut = 24;
    EXPECT_EQ(run_with_conv(conv),
              std::make_pair(StatusCode::kOk, StatusCode::kOk));
}

TEST(Engine, RejectsKarnaughAboveTwenty) {
    core::Anf2CnfConfig conv;
    conv.karnaugh_k = 21;
    const auto bad = std::make_pair(StatusCode::kInvalidArgument,
                                    StatusCode::kInvalidArgument);
    EXPECT_EQ(run_with_conv(conv), bad);
    conv.karnaugh_k = 20;
    EXPECT_EQ(run_with_conv(conv),
              std::make_pair(StatusCode::kOk, StatusCode::kOk));
}

// ---- ANF <-> CNF roundtrip through the facade -----------------------------

TEST(Engine, AnfToCnfRoundtripPreservesModels) {
    // Models of the ANF must survive: ANF -> processed CNF -> (reparse as a
    // CNF Problem) -> engine verdict, projected onto original variables.
    const auto problem =
        *Problem::from_anf_text("x1*x2 + x3\nx2 + x4\nx1*x4 + x2\n");
    const auto direct = testutil::anf_models(problem.polynomials(),
                                             problem.num_vars());
    ASSERT_FALSE(direct.empty());

    EngineConfig cfg = small_config();
    cfg.use_sat = false;  // keep the CNF a pure description of the system
    Engine engine(cfg);
    const auto run = engine.run(problem);
    ASSERT_TRUE(run.ok());

    const sat::Cnf processed = run->to_cnf(cfg.conv).cnf;
    EXPECT_TRUE(processed.xors.empty()) << "plain, DIMACS-compatible CNF";
    const auto cnf_models = testutil::project_models(
        testutil::cnf_models(processed), problem.num_vars());
    EXPECT_EQ(cnf_models, direct)
        << "processed CNF must have the same models over original vars";

    // And back in through the facade as a CNF problem.
    const auto back = engine.run(Problem::from_cnf(processed));
    ASSERT_TRUE(back.ok());
    EXPECT_NE(back->verdict, sat::Result::kUnsat);
}

// ---- hooks: interrupt and progress ----------------------------------------

TEST(Engine, InterruptCancelsMidLoop) {
    // Allow exactly one technique step, then interrupt: the run must stop
    // after that step with interrupted == true and no verdict.
    Engine engine(small_config());
    int calls = 0;
    engine.set_interrupt_callback([&]() { return ++calls > 1; });
    const auto run = engine.run(paper_example());
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run->interrupted);
    EXPECT_EQ(run->verdict, sat::Result::kUnknown);
    ASSERT_EQ(run->techniques.size(), 3u);
    EXPECT_EQ(run->techniques[0].steps, 1u) << "xl ran once";
    EXPECT_EQ(run->techniques[1].steps, 0u) << "elimlin never ran";
    EXPECT_EQ(run->techniques[2].steps, 0u) << "sat never ran";
}

TEST(Engine, ImmediateInterruptRunsNothing) {
    Engine engine(small_config());
    engine.set_interrupt_callback([]() { return true; });
    const auto run = engine.run(paper_example());
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run->interrupted);
    for (const auto& t : run->techniques) EXPECT_EQ(t.steps, 0u);
}

TEST(Engine, ProgressCallbackSeesEveryStep) {
    Engine engine(small_config());
    std::vector<Progress> seen;
    engine.set_progress_callback(
        [&](const Progress& p) { seen.push_back(p); });
    const auto run = engine.run(paper_example());
    ASSERT_TRUE(run.ok());
    ASSERT_FALSE(seen.empty());
    EXPECT_EQ(seen.front().technique, "xl");
    size_t total_steps = 0;
    for (const auto& t : run->techniques) total_steps += t.steps;
    EXPECT_EQ(seen.size(), total_steps);
}

TEST(Engine, ZeroTimeBudgetReportsTimeout) {
    EngineConfig cfg = small_config();
    cfg.time_budget_s = 0.0;
    Engine engine(cfg);
    const auto run = engine.run(paper_example());
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run->timed_out);
    EXPECT_EQ(run->verdict, sat::Result::kUnknown);
}

// ---- pluggable techniques --------------------------------------------------

class NoOpTechnique final : public Technique {
public:
    explicit NoOpTechnique(int* steps) : steps_(steps) {}
    std::string name() const override { return "noop"; }
    StepReport step(core::AnfSystem&, FactSink&) override {
        ++*steps_;
        return {};
    }

private:
    int* steps_;
};

TEST(Engine, NoOpTechniquePlugsInWithoutEngineChanges) {
    int steps = 0;
    Engine engine(small_config());
    engine.add_technique(std::make_unique<NoOpTechnique>(&steps));
    EXPECT_EQ(engine.technique_names().back(), "noop");

    const auto run = engine.run(paper_example());
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->verdict, sat::Result::kSat) << "result unchanged";
    EXPECT_EQ(run->facts_from("noop"), 0u);
}

TEST(Engine, CustomOnlyRegistryReachesFixedPointImmediately) {
    int steps = 0;
    Engine engine(small_config());
    engine.clear_techniques();
    engine.add_technique(std::make_unique<NoOpTechnique>(&steps));
    const auto run = engine.run(paper_example());
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->verdict, sat::Result::kUnknown);
    EXPECT_EQ(steps, 1) << "no facts -> fixed point after one pass";
}

class FailingTechnique final : public Technique {
public:
    std::string name() const override { return "failing"; }
    StepReport step(core::AnfSystem&, FactSink&) override {
        StepReport r;
        r.status = Status::internal("synthetic failure");
        return r;
    }
};

TEST(Engine, TechniqueErrorAbortsRunWithStatus) {
    Engine engine(small_config());
    engine.clear_techniques();
    engine.add_technique(std::make_unique<FailingTechnique>());
    const auto run = engine.run(paper_example());
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInternal);
}

// ---- solve() and legacy adapters ------------------------------------------

TEST(Solve, AnfBothModesThroughFacade) {
    const auto problem = paper_example();
    for (const bool with : {false, true}) {
        SolveConfig cfg;
        cfg.engine = small_config();
        cfg.preprocess = with;
        cfg.timeout_s = 30.0;
        cfg.engine_budget_s = 5.0;
        const auto out = solve(problem, cfg);
        ASSERT_TRUE(out.ok());
        EXPECT_EQ(out->result, sat::Result::kSat) << "with=" << with;
        EXPECT_TRUE(out->model_verified || out->solved_in_loop);
    }
}

TEST(Solve, LegacyEntryPointsAgreeWithFacade) {
    // The four old entry points are now one-liners over Problem + Engine;
    // they must agree with the facade on verdict and solution.
    const auto problem = paper_example();
    core::Bosphorus tool(small_config());
    const auto legacy =
        tool.process_anf(problem.polynomials(), problem.num_vars());
    const auto run = Engine(small_config()).run(problem);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(legacy.status, run->verdict);
    EXPECT_EQ(legacy.solution, run->solution);
    EXPECT_EQ(legacy.facts_from_xl, run->facts_from("xl"));

    core::PipelineConfig pcfg;
    pcfg.bosphorus = small_config();
    pcfg.use_bosphorus = true;
    pcfg.timeout_s = 30.0;
    const auto pipe = core::solve_anf_instance(problem.polynomials(),
                                               problem.num_vars(), pcfg);
    const auto facade = solve(problem, core::to_solve_config(pcfg));
    ASSERT_TRUE(facade.ok());
    EXPECT_EQ(pipe.result, facade->result);
}

TEST(Solve, DefaultSolverMatchesCliDocumentation) {
    // The CLI usage text promises `--solver` defaults to cms; the config
    // structs must agree with it and name a registered backend.
    EXPECT_STREQ(sat::kDefaultSolverName, "cms");
    EXPECT_TRUE(sat::BackendRegistry::global().contains(sat::kDefaultSolverName));
    EXPECT_EQ(core::PipelineConfig{}.solver.spec, sat::kDefaultSolverName);
    EXPECT_EQ(SolveConfig{}.solver.spec, sat::kDefaultSolverName);
}

TEST(Par2Score, SolvedUnsolvedMixAndEmptySet) {
    EXPECT_DOUBLE_EQ(par2_score({}, 1000.0), 0.0);

    SolveOutcome sat_fast;
    sat_fast.result = sat::Result::kSat;
    sat_fast.seconds = 12.5;
    SolveOutcome unsat_slow;
    unsat_slow.result = sat::Result::kUnsat;
    unsat_slow.seconds = 300.0;
    SolveOutcome unsolved;
    unsolved.result = sat::Result::kUnknown;
    unsolved.seconds = 999.0;  // runtime of unsolved instances is ignored

    // Solved instances contribute their runtime; unsolved ones 2x the
    // timeout, regardless of how long they actually ran.
    EXPECT_DOUBLE_EQ(par2_score({sat_fast}, 1000.0), 12.5);
    EXPECT_DOUBLE_EQ(par2_score({unsolved}, 1000.0), 2000.0);
    EXPECT_DOUBLE_EQ(par2_score({sat_fast, unsat_slow, unsolved}, 500.0),
                     12.5 + 300.0 + 2.0 * 500.0);
    // Lower is better: a fully-solved set beats one with a timeout.
    EXPECT_LT(par2_score({sat_fast, unsat_slow}, 500.0),
              par2_score({sat_fast, unsolved}, 500.0));
}

}  // namespace
}  // namespace bosphorus
