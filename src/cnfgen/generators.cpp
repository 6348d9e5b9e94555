#include "cnfgen/generators.h"

#include <algorithm>
#include <ostream>
#include <set>
#include <string>

namespace bosphorus::cnfgen {

using sat::Cnf;
using sat::Lit;
using sat::mk_lit;
using sat::Var;

PlantedAnf planted_quadratic_anf(size_t num_vars, size_t num_eqs,
                                 unsigned quadratic_terms,
                                 unsigned linear_terms, Rng& rng) {
    PlantedAnf out;
    out.num_vars = num_vars;
    out.planted.resize(num_vars);
    for (size_t v = 0; v < num_vars; ++v) out.planted[v] = rng.coin();

    out.polys.reserve(num_eqs);
    for (size_t e = 0; e < num_eqs; ++e) {
        anf::Polynomial p;
        for (unsigned q = 0; q < quadratic_terms; ++q) {
            const auto a = static_cast<anf::Var>(rng.below(num_vars));
            const auto b = static_cast<anf::Var>(rng.below(num_vars));
            p += anf::Polynomial::variable(a) * anf::Polynomial::variable(b);
        }
        for (unsigned l = 0; l < linear_terms; ++l) {
            const auto a = static_cast<anf::Var>(rng.below(num_vars));
            p += anf::Polynomial::variable(a);
        }
        if (p.evaluate(out.planted)) p += anf::Polynomial::constant(true);
        if (p.is_zero()) { --e; continue; }  // degenerate draw, redo
        out.polys.push_back(std::move(p));
    }
    return out;
}

Cnf random_ksat(size_t num_vars, size_t num_clauses, unsigned k, Rng& rng) {
    Cnf cnf;
    cnf.num_vars = num_vars;
    for (size_t i = 0; i < num_clauses; ++i) {
        std::set<Var> vars;
        while (vars.size() < k)
            vars.insert(static_cast<Var>(rng.below(num_vars)));
        std::vector<Lit> clause;
        for (Var v : vars) clause.push_back(mk_lit(v, rng.coin()));
        cnf.add_clause(std::move(clause));
    }
    return cnf;
}

Cnf pigeonhole(unsigned holes) {
    // Variables: p(i, j) = pigeon i sits in hole j, i in [0, holes], j in
    // [0, holes).
    const unsigned pigeons = holes + 1;
    Cnf cnf;
    cnf.num_vars = pigeons * holes;
    auto p = [&](unsigned i, unsigned j) {
        return static_cast<Var>(i * holes + j);
    };
    // Every pigeon sits somewhere.
    for (unsigned i = 0; i < pigeons; ++i) {
        std::vector<Lit> clause;
        for (unsigned j = 0; j < holes; ++j)
            clause.push_back(mk_lit(p(i, j), false));
        cnf.add_clause(std::move(clause));
    }
    // No two pigeons share a hole.
    for (unsigned j = 0; j < holes; ++j)
        for (unsigned i1 = 0; i1 < pigeons; ++i1)
            for (unsigned i2 = i1 + 1; i2 < pigeons; ++i2)
                cnf.add_clause({mk_lit(p(i1, j), true), mk_lit(p(i2, j), true)});
    return cnf;
}

Cnf xor_cycle(size_t length, bool satisfiable, Rng& rng) {
    // Chain variables x_0..x_{length-1} and per-link slack t_i with
    // constraints x_i ^ x_{(i+1) % length} ^ t_i = c_i. Summing all
    // constraints, the x's cancel around the cycle, so
    // XOR(t_i) = XOR(c_i) -- forcing t_i all-zero via unit clauses makes
    // the instance SAT iff XOR(c_i) = 0.
    Cnf cnf;
    cnf.num_vars = 2 * length;
    bool parity = false;
    std::vector<bool> cs(length);
    for (size_t i = 0; i < length; ++i) {
        cs[i] = rng.coin();
        parity ^= cs[i];
    }
    // Fix the last constant so total parity equals the desired verdict
    // (0 = satisfiable, 1 = contradictory).
    if (parity != !satisfiable) cs[length - 1] = !cs[length - 1];

    for (size_t i = 0; i < length; ++i) {
        const Var x = static_cast<Var>(i);
        const Var x2 = static_cast<Var>((i + 1) % length);
        const Var t = static_cast<Var>(length + i);
        // x ^ x2 ^ t = c: 4 CNF clauses forbidding wrong-parity rows.
        for (unsigned bits = 0; bits < 8; ++bits) {
            const bool parity_row =
                ((bits & 1) != 0) ^ ((bits & 2) != 0) ^ ((bits & 4) != 0);
            if (parity_row == cs[i]) continue;
            cnf.add_clause({mk_lit(x, (bits & 1) != 0),
                            mk_lit(x2, (bits & 2) != 0),
                            mk_lit(t, (bits & 4) != 0)});
        }
        cnf.add_clause({mk_lit(t, true)});  // t = 0
    }
    return cnf;
}

Cnf tseitin_expander(size_t vertices, bool satisfiable, Rng& rng) {
    // 4-regular multigraph by random pairing of vertex stubs (self-loops
    // skipped: they XOR a variable with itself and carry no information).
    std::vector<size_t> stubs;
    for (size_t v = 0; v < vertices; ++v)
        for (int i = 0; i < 4; ++i) stubs.push_back(v);
    rng.shuffle(stubs);
    std::vector<std::vector<Var>> incident(vertices);
    Var next_edge = 0;
    for (size_t i = 0; i + 1 < stubs.size(); i += 2) {
        const size_t a = stubs[i], b = stubs[i + 1];
        if (a == b) continue;
        incident[a].push_back(next_edge);
        incident[b].push_back(next_edge);
        ++next_edge;
    }
    // Charges: all zero except vertex 0, which carries the verdict bit.
    // Every component away from vertex 0 has even (zero) charge and is
    // satisfiable; vertex 0's component sums to the verdict bit -- so the
    // formula's status is decided regardless of multigraph connectivity.
    std::vector<bool> charge(vertices, false);
    charge[0] = !satisfiable;

    Cnf cnf;
    cnf.num_vars = next_edge;
    for (size_t v = 0; v < vertices; ++v) {
        const auto& edges = incident[v];
        const size_t d = edges.size();
        if (d == 0) {
            if (charge[v]) cnf.add_clause({});  // 0 = 1: contradiction
            continue;
        }
        for (uint32_t bits = 0; bits < (1u << d); ++bits) {
            bool p = false;
            for (size_t i = 0; i < d; ++i) p ^= (bits >> i) & 1;
            if (p == charge[v]) continue;
            std::vector<Lit> clause;
            for (size_t i = 0; i < d; ++i)
                clause.push_back(mk_lit(edges[i], (bits >> i) & 1));
            cnf.add_clause(std::move(clause));
        }
    }
    return cnf;
}

Cnf graph_coloring(size_t num_vertices, size_t num_edges, unsigned colors,
                   Rng& rng) {
    Cnf cnf;
    cnf.num_vars = num_vertices * colors;
    auto col = [&](size_t v, unsigned c) {
        return static_cast<Var>(v * colors + c);
    };
    for (size_t v = 0; v < num_vertices; ++v) {
        std::vector<Lit> clause;
        for (unsigned c = 0; c < colors; ++c)
            clause.push_back(mk_lit(col(v, c), false));
        cnf.add_clause(std::move(clause));
        for (unsigned c1 = 0; c1 < colors; ++c1)
            for (unsigned c2 = c1 + 1; c2 < colors; ++c2)
                cnf.add_clause(
                    {mk_lit(col(v, c1), true), mk_lit(col(v, c2), true)});
    }
    std::set<std::pair<size_t, size_t>> edges;
    while (edges.size() < num_edges) {
        size_t a = rng.below(num_vertices);
        size_t b = rng.below(num_vertices);
        if (a == b) continue;
        if (a > b) std::swap(a, b);
        if (!edges.insert({a, b}).second) continue;
        for (unsigned c = 0; c < colors; ++c)
            cnf.add_clause({mk_lit(col(a, c), true), mk_lit(col(b, c), true)});
    }
    return cnf;
}

void write_stream_dimacs(std::ostream& out, const StreamDimacs& cfg,
                         Rng& rng) {
    const uint64_t nv = std::max<uint64_t>(cfg.num_vars, 1);
    const unsigned k =
        static_cast<unsigned>(std::min<uint64_t>(std::max(1u, cfg.k), nv));
    const unsigned xlen = static_cast<unsigned>(
        std::min<uint64_t>(std::max(2u, std::min(cfg.xor_len, 10u)), nv));
    const uint64_t group = 1ull << (xlen - 1);  // clauses per XOR encoding

    // Hidden assignment every emitted constraint is consistent with.
    // Re-derivable in O(1) memory per variable: bit v of the planted model
    // is splitmix-style hashed from a per-file key drawn up front.
    const uint64_t plant_key = rng.next();
    auto planted = [&](Var v) {
        uint64_t z = plant_key + 0x9E3779B97F4A7C15ull * (v + 1);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return ((z ^ (z >> 31)) & 1) != 0;
    };

    out << "p cnf " << nv << ' ' << cfg.num_clauses << '\n';

    std::vector<Var> vars;
    std::vector<Lit> prev;
    std::string line;
    uint64_t emitted = 0;
    uint64_t slot = 0;
    auto put_clause = [&](const std::vector<Lit>& c) {
        line.clear();
        for (const Lit l : c) {
            line += std::to_string(l.to_dimacs());
            line += ' ';
        }
        line += "0\n";
        out << line;
        ++emitted;
    };
    auto draw_vars = [&](unsigned n) {
        vars.clear();
        while (vars.size() < n) {
            const Var v = static_cast<Var>(rng.below(nv));
            if (std::find(vars.begin(), vars.end(), v) == vars.end())
                vars.push_back(v);
        }
    };

    while (emitted < cfg.num_clauses) {
        ++slot;
        if (cfg.comment_every && slot % cfg.comment_every == 0)
            out << "c slot " << slot << '\n';

        const uint64_t roll = rng.below(100);
        const uint64_t left = cfg.num_clauses - emitted;
        if (roll < cfg.xor_percent && left >= group) {
            // Full XOR-encoding group: all wrong-parity sign patterns over
            // one variable set -- exactly what recover_xors reassembles.
            draw_vars(xlen);
            bool rhs = cfg.plant;  // planted parity; else fixed rhs = true
            if (cfg.plant) {
                rhs = false;
                for (const Var v : vars) rhs ^= planted(v);
            }
            std::vector<Lit> c(xlen);
            for (uint64_t bits = 0; bits < (1ull << xlen); ++bits) {
                bool parity = false;
                for (unsigned i = 0; i < xlen; ++i)
                    parity ^= (bits >> i) & 1;
                if (parity == rhs) continue;  // right parity: allowed row
                for (unsigned i = 0; i < xlen; ++i)
                    c[i] = mk_lit(vars[i], ((bits >> i) & 1) != 0);
                put_clause(c);
            }
            continue;
        }
        if (roll < cfg.xor_percent + cfg.unit_percent) {
            const Var v = static_cast<Var>(rng.below(nv));
            const bool neg = cfg.plant ? !planted(v) : rng.coin();
            put_clause({mk_lit(v, neg)});
            continue;
        }
        if (roll < cfg.xor_percent + cfg.unit_percent +
                       cfg.duplicate_percent &&
            !prev.empty()) {
            put_clause(prev);
            continue;
        }
        draw_vars(k);
        std::vector<Lit> c;
        c.reserve(k);
        bool sat_under_plant = false;
        for (const Var v : vars) {
            const bool neg = rng.coin();
            if (cfg.plant && planted(v) != neg) sat_under_plant = true;
            c.push_back(mk_lit(v, neg));
        }
        if (cfg.plant && !sat_under_plant) {
            // Flip one literal so the planted assignment satisfies it.
            const size_t i = static_cast<size_t>(rng.below(c.size()));
            c[i] = ~c[i];
        }
        put_clause(c);
        prev = c;
    }
}

std::vector<SuiteInstance> sat2017_substitute_suite(unsigned scale,
                                                    uint64_t seed) {
    Rng rng(seed);
    std::vector<SuiteInstance> suite;
    const size_t s = std::max(1u, scale);
    const auto known = [](bool satisfiable) {
        return satisfiable ? sat::Result::kSat : sat::Result::kUnsat;
    };

    // Random 3-SAT at the phase transition: half below, half above the
    // threshold ratio, giving a SAT/UNSAT mix.
    for (int i = 0; i < 4; ++i) {
        const size_t n = 40 * s + 10 * i;
        const double ratio = (i % 2 == 0) ? 4.0 : 4.5;
        suite.push_back({"ksat-" + std::to_string(n) +
                             (i % 2 == 0 ? "-under" : "-over"),
                         "random-3sat",
                         random_ksat(n, static_cast<size_t>(n * ratio), 3,
                                     rng)});
    }
    // Pigeonhole: hard UNSAT for resolution.
    for (unsigned holes = 5 + s; holes <= 6 + s; ++holes) {
        suite.push_back({"php-" + std::to_string(holes), "pigeonhole",
                         pigeonhole(holes), sat::Result::kUnsat});
    }
    // XOR cycles: GF(2)-structured, half SAT half UNSAT.
    for (int i = 0; i < 4; ++i) {
        const size_t len = 60 * s + 20 * i;
        const bool satisfiable = (i % 2 == 0);
        suite.push_back({"xorcycle-" + std::to_string(len) +
                             (satisfiable ? "-sat" : "-unsat"),
                         "xor-cycle", xor_cycle(len, satisfiable, rng),
                         known(satisfiable)});
    }
    // Tseitin expanders: the resolution-hard / GF(2)-easy separator.
    for (int i = 0; i < 4; ++i) {
        const size_t n = 20 * s + 8 * i;
        const bool satisfiable = (i % 2 == 0);
        suite.push_back({"tseitin-" + std::to_string(n) +
                             (satisfiable ? "-sat" : "-unsat"),
                         "tseitin-expander",
                         tseitin_expander(n, satisfiable, rng),
                         known(satisfiable)});
    }
    // Graph colouring.
    for (int i = 0; i < 2; ++i) {
        const size_t n = 20 * s + 5 * i;
        const size_t e = n * 2 + i * n / 2;
        suite.push_back({"color-" + std::to_string(n) + "-" +
                             std::to_string(e),
                         "graph-coloring", graph_coloring(n, e, 3, rng)});
    }
    return suite;
}

}  // namespace bosphorus::cnfgen
