#pragma once
// Shared test helpers: brute-force reference semantics for small formulas,
// random formula generators for fuzz/property tests, and a solver-call
// counter.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cnf/cnf.hpp"
#include "cnf/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace unigen::test {

/// All satisfying total assignments of `cnf`, by exhaustive enumeration.
/// Only usable for num_vars() <= ~22.
inline std::vector<Model> brute_force_models(const Cnf& cnf) {
  const Var n = cnf.num_vars();
  std::vector<Model> models;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    Model m(static_cast<std::size_t>(n));
    for (Var v = 0; v < n; ++v)
      m[static_cast<std::size_t>(v)] =
          ((bits >> v) & 1u) ? lbool::True : lbool::False;
    if (cnf.satisfied_by(m)) models.push_back(std::move(m));
  }
  return models;
}

inline std::uint64_t brute_force_count(const Cnf& cnf) {
  return brute_force_models(cnf).size();
}

/// Distinct projections of the brute-force models onto `vars`.
inline std::uint64_t brute_force_projected_count(const Cnf& cnf,
                                                 const std::vector<Var>& vars) {
  std::vector<std::uint64_t> keys;
  for (const Model& m : brute_force_models(cnf)) {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (m[static_cast<std::size_t>(vars[i])] == lbool::True)
        key |= std::uint64_t{1} << i;
    }
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return static_cast<std::uint64_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
}

/// 504 models over 10 vars: above hiThresh(ε=6) = 89 and pivot(ε=0.8), so
/// both the counter and the sampler run hashed and the workers actually
/// solve.
inline Cnf hashed_mode_formula() {
  Cnf cnf(10);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
  cnf.add_clause({Lit(3, false), Lit(4, true)});
  cnf.add_clause({Lit(5, false), Lit(6, false), Lit(7, true)});
  cnf.add_clause({Lit(8, false), Lit(9, false), Lit(0, true)});
  return cnf;
}

/// Random k-CNF over n variables with c clauses.
inline Cnf random_cnf(Var n, std::size_t c, std::size_t k, Rng& rng) {
  Cnf cnf(n);
  for (std::size_t i = 0; i < c; ++i) {
    std::vector<Lit> clause;
    for (std::size_t j = 0; j < k; ++j)
      clause.emplace_back(static_cast<Var>(rng.below(static_cast<std::uint64_t>(n))),
                          rng.flip());
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

/// Random CNF+XOR formula: c clauses of width k plus x XOR constraints of
/// average width n/2.
inline Cnf random_cnf_xor(Var n, std::size_t c, std::size_t k, std::size_t x,
                          Rng& rng) {
  Cnf cnf = random_cnf(n, c, k, rng);
  for (std::size_t i = 0; i < x; ++i) {
    std::vector<Var> vars;
    for (Var v = 0; v < n; ++v)
      if (rng.flip()) vars.push_back(v);
    if (vars.empty()) vars.push_back(static_cast<Var>(rng.below(static_cast<std::uint64_t>(n))));
    cnf.add_xor(std::move(vars), rng.flip());
  }
  return cnf;
}

/// Random sampling set S: a uniformly drawn nonempty subset of at most
/// `max_size` variables, attached to `cnf` and returned (sorted, distinct).
/// Shared by the fuzz harness and the projected-counting property tests.
inline std::vector<Var> attach_random_sampling_set(Cnf& cnf,
                                                   std::size_t max_size,
                                                   Rng& rng) {
  std::vector<Var> all(static_cast<std::size_t>(cnf.num_vars()));
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<Var>(i);
  rng.shuffle(all);
  const std::size_t take = 1 + static_cast<std::size_t>(rng.below(
                                   std::min<std::uint64_t>(max_size,
                                                           all.size())));
  all.resize(take);
  std::sort(all.begin(), all.end());
  cnf.set_sampling_set(all);
  return all;
}

/// Appends 1–2 XOR gate chains that start in `s`, run through 1–2 fresh
/// variables outside it and end in a parity back on `s` — the shape of a
/// Tseitin circuit's XOR gates:  g1 = s_a ^ s_b,  g2 = g1 ^ s_c,
/// g2 ^ s_d = r.  Each chain implies a parity of `s` that the formula
/// states only through the gate variables.  The gates are functions of
/// `s`, so projected counts over `s` keep their meaning; at most four
/// variables are added.
inline void add_gate_chains(Cnf& cnf, const std::vector<Var>& s, Rng& rng) {
  const auto pick = [&] { return s[rng.below(s.size())]; };
  const std::uint64_t chains = 1 + rng.below(2);
  for (std::uint64_t c = 0; c < chains; ++c) {
    Var prev = pick();
    const std::uint64_t gates = 1 + rng.below(2);
    for (std::uint64_t g = 0; g < gates; ++g) {
      const Var gate = cnf.new_var();
      cnf.add_xor({gate, prev, pick()}, false);
      prev = gate;
    }
    cnf.add_xor({prev, pick()}, rng.flip());
  }
}

/// One randomly drawn fuzz instance: a small CNF (sometimes with XOR rows,
/// sometimes with a random sampling set, sometimes with XOR gate chains
/// outside S) whose full and projected model sets stay brute-forceable
/// (at most 16 variables, |S| <= 12).  Deterministic in `seed` — the repro
/// line a failing fuzz run prints is just this seed.
struct FuzzCase {
  Cnf cnf;
  std::vector<Var> sampling_set;  ///< == cnf.sampling_set_or_all()
};

inline FuzzCase make_fuzz_case(std::uint64_t seed) {
  Rng rng(seed);
  const Var n = static_cast<Var>(5 + rng.below(8));          // 5..12 vars
  const std::size_t c = 2 + static_cast<std::size_t>(rng.below(
                                2 * static_cast<std::uint64_t>(n)));
  const std::size_t k = 2 + static_cast<std::size_t>(rng.below(3));
  FuzzCase fc;
  if (rng.flip(0.25)) {
    const std::size_t x = 1 + static_cast<std::size_t>(rng.below(3));
    fc.cnf = random_cnf_xor(n, c, k, x, rng);
  } else {
    fc.cnf = random_cnf(n, c, k, rng);
  }
  if (rng.flip(0.5)) {
    const std::vector<Var> s =
        attach_random_sampling_set(fc.cnf, static_cast<std::size_t>(n), rng);
    // Drawn last, so the seeds without chains keep their earlier cases.
    // S is explicit here, so the chains' gates stay outside it.
    if (rng.flip(0.6)) add_gate_chains(fc.cnf, s, rng);
  }
  fc.sampling_set = fc.cnf.sampling_set_or_all();
  return fc;
}

/// Solver calls made by `f`, read off the `bsat.solves` counter (recorded
/// only while observability is on).
template <class F>
std::uint64_t solver_calls(F&& f) {
  static obs::Counter& solves = obs::metrics().counter("bsat.solves");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::uint64_t before = solves.value();
  f();
  const std::uint64_t calls = solves.value() - before;
  obs::set_enabled(was_enabled);
  return calls;
}

}  // namespace unigen::test
