#include "core/bosphorus.h"

#include <cstdio>
#include <utility>

namespace bosphorus::core {

BosphorusResult to_bosphorus_result(::bosphorus::Report report,
                                    const Anf2CnfConfig& conv) {
    BosphorusResult res;
    res.status = report.verdict;
    res.solution = std::move(report.solution);
    res.processed_cnf = report.to_cnf(conv);
    res.processed_anf = std::move(report.processed_anf);
    res.iterations = report.iterations;
    res.facts_from_xl = report.facts_from("xl");
    res.facts_from_elimlin = report.facts_from("elimlin");
    res.facts_from_groebner = report.facts_from("groebner");
    res.facts_from_sat = report.facts_from("sat");
    res.vars_fixed = report.vars_fixed;
    res.vars_replaced = report.vars_replaced;
    res.seconds = report.seconds;
    return res;
}

namespace {

/// The legacy API has no error channel: a failed run degrades to the
/// kUnknown verdict (built-in techniques never fail, so this is latent).
BosphorusResult from_run(::bosphorus::Result<::bosphorus::Report> run,
                         const Anf2CnfConfig& conv) {
    if (!run.ok()) {
        std::fprintf(stderr, "c bosphorus: engine error: %s\n",
                     run.status().to_string().c_str());
        return BosphorusResult{};
    }
    return to_bosphorus_result(std::move(*run), conv);
}

}  // namespace

BosphorusResult Bosphorus::process_anf(std::vector<anf::Polynomial> polys,
                                       size_t num_vars) {
    auto run = ::bosphorus::Engine(opt_).run(
        ::bosphorus::Problem::from_anf(std::move(polys), num_vars));
    return from_run(std::move(run), opt_.conv);
}

BosphorusResult Bosphorus::process_cnf(const sat::Cnf& cnf) {
    auto run =
        ::bosphorus::Engine(opt_).run(::bosphorus::Problem::from_cnf(cnf));
    return from_run(std::move(run), opt_.conv);
}

}  // namespace bosphorus::core
