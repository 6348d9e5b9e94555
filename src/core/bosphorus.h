// Legacy entry point for the Bosphorus workflow (paper Fig. 1).
//
// `Bosphorus` is now a thin adapter over the public library facade: each
// process_* call is a one-liner building a `bosphorus::Problem` and running
// a `bosphorus::Engine` (see include/bosphorus/). New code should use the
// facade directly -- it exposes the pluggable technique registry, structured
// errors, and the interrupt/progress hooks; this header remains so existing
// callers keep compiling. `Options` is an alias of `EngineConfig`.
#pragma once

#include <cstdint>
#include <vector>

#include "bosphorus/engine.h"
#include "bosphorus/problem.h"
#include "core/anf_to_cnf.h"
#include "sat/types.h"

namespace bosphorus::core {

using Options = ::bosphorus::EngineConfig;

struct BosphorusResult {
    /// kSat: in-loop solution found; kUnsat: 1 = 0 derived; kUnknown: the
    /// loop reached a fixed point without deciding the instance.
    sat::Result status = sat::Result::kUnknown;

    /// Satisfying ANF assignment (indexed by variable) iff status == kSat.
    std::vector<bool> solution;

    /// The processed system: live equations plus variable-state equations.
    std::vector<anf::Polynomial> processed_anf;

    /// CNF of the processed system (includes all learnt facts).
    Anf2CnfResult processed_cnf;

    size_t iterations = 0;
    size_t facts_from_xl = 0;
    size_t facts_from_elimlin = 0;
    size_t facts_from_groebner = 0;
    size_t facts_from_sat = 0;
    size_t vars_fixed = 0;
    size_t vars_replaced = 0;
    double seconds = 0.0;
};

/// Map an Engine report onto the legacy result layout, converting the
/// processed ANF to CNF under `conv`.
BosphorusResult to_bosphorus_result(::bosphorus::Report report,
                                    const Anf2CnfConfig& conv);

class Bosphorus {
public:
    explicit Bosphorus(Options opt) : opt_(opt) {}
    Bosphorus() : Bosphorus(Options{}) {}

    /// Process an ANF problem (polynomial equations over num_vars vars).
    BosphorusResult process_anf(std::vector<anf::Polynomial> polys,
                                size_t num_vars);

    /// Process a CNF problem: converted to ANF first (section III-D); the
    /// returned processed CNF covers the internal ANF including learnt
    /// facts. Auxiliary clause-cutting variables live above cnf.num_vars.
    BosphorusResult process_cnf(const sat::Cnf& cnf);

    const Options& options() const { return opt_; }

private:
    Options opt_;
};

}  // namespace bosphorus::core
