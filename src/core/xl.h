// eXtended Linearization (XL) -- paper section II-B.
//
// The system is uniformly subsampled to linearised size ~2^M, expanded by
// multiplying equations (in ascending degree order) with monomials of degree
// up to D, capped at total size ~2^(M + deltaM), then Gauss-Jordan
// eliminated. Rows of the reduced system that are linear equations or
// monomial facts (x_{i1}...x_{ip} + 1) are retained as learnt facts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "anf/polynomial.h"
#include "core/linearize.h"
#include "runtime/cancellation.h"
#include "util/rng.h"

namespace bosphorus::core {

struct XlConfig {
    unsigned degree = 1;   ///< D: maximal multiplier monomial degree
    unsigned m_budget = 30;   ///< M: subsample until m'*n' >= 2^M
    unsigned delta_m = 4;  ///< deltaM: expansion cap 2^(M + deltaM)
};

struct XlStats {
    size_t sampled_equations = 0;
    size_t expanded_rows = 0;
    size_t columns = 0;
    size_t rank = 0;
    size_t facts = 0;
};

/// Steps 1-2 of an XL pass: the linearised rows XL eliminates (the
/// subsampled system, then its products with the multipliers, capped at
/// ~2^(M + deltaM)). Products are written term by term into a TermRows
/// buffer, repeated terms cancelled by parity; a product that cancels to
/// zero adds no row. The result equals linearize() of the canonical
/// products, row for row. No rows when `system` is empty or `cancel`
/// fires. `sampled_equations`, if non-null, receives the subsample's size.
Linearization expand_xl(const std::vector<anf::Polynomial>& system,
                        const XlConfig& cfg, Rng& rng,
                        const runtime::CancellationToken& cancel = {},
                        size_t* sampled_equations = nullptr);

/// Run one XL pass: expand_xl(), then eliminate and extract_facts().
/// Returns the learnt facts (possibly including the constant-1
/// polynomial, meaning the system is UNSAT). `cancel` is polled at
/// expansion-batch boundaries and around the elimination; a cancelled run
/// returns the (possibly empty) facts gathered so far.
std::vector<anf::Polynomial> run_xl(
    const std::vector<anf::Polynomial>& system, const XlConfig& cfg, Rng& rng,
    XlStats* stats = nullptr,
    const runtime::CancellationToken& cancel = {});

}  // namespace bosphorus::core
