// CNF benchmark generators -- the in-tree substitute for the SAT
// Competition 2017 suite used in the paper's last two Table II rows.
//
// The real competition set cannot be redistributed here, so we generate a
// mixed suite that exercises the same axes the paper's evaluation cares
// about: a SAT/UNSAT mix, resolution-hard UNSAT instances (pigeonhole),
// GF(2)-rich instances where XOR reasoning shines (parity chains -- these
// are where Bosphorus/CMS-style reasoning helps most, matching the paper's
// observation that the benefit concentrates on UNSAT instances), random
// k-SAT near the phase transition, and structured graph colouring.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "anf/polynomial.h"
#include "sat/types.h"
#include "util/rng.h"

namespace bosphorus::cnfgen {

/// A random quadratic ANF system with a planted satisfying assignment.
struct PlantedAnf {
    std::vector<anf::Polynomial> polys;
    size_t num_vars = 0;
    std::vector<bool> planted;  ///< the planted model (always satisfies)
};

/// Generate `num_eqs` polynomials, each the sum of `quadratic_terms`
/// random degree-2 monomials and `linear_terms` random variables, with
/// the constant term adjusted so `planted` is a root -- guaranteed SAT,
/// dense enough that XL/ElimLin do real elimination work. Shared by the
/// batch determinism test and bench_batch_throughput so both exercise the
/// same instance family.
PlantedAnf planted_quadratic_anf(size_t num_vars, size_t num_eqs,
                                 unsigned quadratic_terms,
                                 unsigned linear_terms, Rng& rng);

/// Uniform random k-SAT with `num_clauses` clauses over `num_vars`
/// variables (distinct variables per clause). At ratio ~4.26 (k = 3) the
/// instances straddle the SAT/UNSAT threshold.
sat::Cnf random_ksat(size_t num_vars, size_t num_clauses, unsigned k,
                     Rng& rng);

/// Pigeonhole principle PHP(holes + 1, holes): provably UNSAT,
/// exponentially hard for resolution-based solvers.
sat::Cnf pigeonhole(unsigned holes);

/// A cycle of XOR constraints x_i ^ x_{i+1} ^ t_i = c_i, expanded to CNF.
/// The parity of the constants makes the instance SAT or UNSAT; XOR-aware
/// reasoning (recovery + Gauss-Jordan) decides it instantly while plain
/// resolution struggles as `length` grows.
sat::Cnf xor_cycle(size_t length, bool satisfiable, Rng& rng);

/// Tseitin parity formula over a random 4-regular multigraph: one XOR
/// constraint per vertex over its incident edge variables, with random
/// charges whose total parity decides satisfiability. Odd-charged Tseitin
/// formulas on expanders are the classic resolution-hard / GF(2)-easy
/// family -- the sharpest separator between plain CDCL and the
/// Bosphorus/CMS-style reasoning the paper highlights.
sat::Cnf tseitin_expander(size_t vertices, bool satisfiable, Rng& rng);

/// Random graph k-colouring: `num_vertices` vertices, `num_edges` random
/// edges, `colors` colours (one-hot encoding with at-most-one clauses).
sat::Cnf graph_coloring(size_t num_vertices, size_t num_edges,
                        unsigned colors, Rng& rng);

/// Configuration of the O(1)-memory streaming DIMACS generator feeding the
/// out-of-core preprocessor tests and benchmarks.
struct StreamDimacs {
    uint64_t num_vars = 1000;     ///< variables declared in the header
    uint64_t num_clauses = 10000; ///< clause lines written (header-exact)
    unsigned k = 3;               ///< literals per random clause
    /// Percentage of constraint slots spent starting full XOR-encoding
    /// groups (each consumes 2^(xor_len-1) clause slots), giving the
    /// streaming XOR recovery something to find.
    unsigned xor_percent = 10;
    unsigned xor_len = 3;         ///< variables per planted XOR group
    unsigned unit_percent = 1;    ///< percentage of slots that are units
    unsigned duplicate_percent = 2;  ///< slots repeating the previous clause
    unsigned comment_every = 0;   ///< a comment line every N slots (0 = off)
    /// Plant a hidden assignment every clause/XOR group is consistent with,
    /// making the instance SAT by construction (equisatisfiability gates in
    /// CI then expect SAT on both sides). When false clauses are uniform
    /// random, so large instances are almost surely UNSAT.
    bool plant = true;
};

/// Stream a DIMACS file clause-by-clause: memory use is O(k + xor_len)
/// regardless of `num_clauses`, and the "p cnf" header is exact (the
/// constraint mix is budgeted, never truncated). Deterministic in (cfg,
/// rng state).
void write_stream_dimacs(std::ostream& out, const StreamDimacs& cfg,
                         Rng& rng);

/// A named instance of the generated competition-substitute suite.
struct SuiteInstance {
    std::string name;
    std::string family;
    sat::Cnf cnf;
    /// The answer known by construction: kUnsat for pigeonhole and the
    /// `-unsat` parity families, kSat for `-sat`, kUnknown where the
    /// generator does not decide it (random 3-SAT, colouring).
    sat::Result expected = sat::Result::kUnknown;
};

/// The mixed suite standing in for the SAT-2017 rows of Table II. `scale`
/// stretches instance sizes (1 = smoke-test size).
std::vector<SuiteInstance> sat2017_substitute_suite(unsigned scale,
                                                    uint64_t seed);

}  // namespace bosphorus::cnfgen
