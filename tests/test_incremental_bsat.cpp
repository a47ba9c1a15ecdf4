// Tests for the incremental BSAT engine: assumption-activated XOR hash
// rows, blocking-clause retraction, learnt-clause retention, the epoch's
// model store, the one-persistent-solver guarantee (solver_rebuilds stays
// at 1) for both ApproxMC runs and UniGen instances, and that two engines
// given the same calls do the same solver work.

#include <gtest/gtest.h>

#include <memory>

#include "core/unigen.hpp"
#include "counting/approxmc.hpp"
#include "hashing/xor_hash.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_json.hpp"
#include "sat/incremental_bsat.hpp"
#include "workloads/circuits.hpp"

namespace unigen {
namespace {

using test::brute_force_projected_count;
using test::random_cnf;
using test::random_cnf_xor;

/// Reference count of cnf ∧ (first m rows of h), projected on `proj`.
std::uint64_t reference_cell_count(const Cnf& cnf, const XorHash& h,
                                   std::size_t m, const std::vector<Var>& proj) {
  Cnf hashed = cnf;
  for (std::size_t i = 0; i < m; ++i) hashed.add_xor(h.rows[i]);
  return brute_force_projected_count(hashed, proj);
}

TEST(IncrementalBsat, ActivatedRowsMatchBruteForceAtEveryLevel) {
  Rng rng(101);
  const std::vector<Var> proj{0, 1, 2, 3, 4, 5, 6, 7};
  for (int round = 0; round < 10; ++round) {
    const Cnf cnf = random_cnf(10, 22, 3, rng);
    IncrementalBsat engine(cnf, proj);
    const XorHash h = draw_xor_hash(proj, 5, rng);
    engine.push_rows(h);
    ASSERT_EQ(engine.hash_level(), 5u);
    // Climb the levels, then revisit lower ones: activation is by
    // assumption only, so levels nest and earlier levels stay available.
    for (std::size_t m : {0u, 1u, 3u, 5u, 2u, 0u}) {
      const auto r =
          engine.enumerate_cell(m, 100000, Deadline::never(), false);
      ASSERT_TRUE(r.exhausted);
      EXPECT_EQ(r.count, reference_cell_count(cnf, h, m, proj))
          << "round " << round << " m " << m;
    }
  }
}

TEST(IncrementalBsat, FreshEpochReplacesTheHash) {
  Rng rng(202);
  const std::vector<Var> proj{0, 1, 2, 3, 4, 5};
  const Cnf cnf = random_cnf(9, 18, 3, rng);
  IncrementalBsat engine(cnf, proj);
  const std::uint64_t base =
      engine.enumerate_cell(0, 100000, Deadline::never(), false).count;
  for (int epoch = 0; epoch < 25; ++epoch) {
    engine.begin_hash();
    const XorHash h = draw_xor_hash(proj, 3, rng);
    engine.push_rows(h);
    const auto r = engine.enumerate_cell(3, 100000, Deadline::never(), false);
    ASSERT_TRUE(r.exhausted);
    EXPECT_EQ(r.count, reference_cell_count(cnf, h, 3, proj)) << epoch;
    // Old epochs must not constrain the new one: level 0 still sees the
    // whole solution space.
    const auto unhashed =
        engine.enumerate_cell(0, 100000, Deadline::never(), false);
    EXPECT_EQ(unhashed.count, base) << epoch;
  }
  EXPECT_EQ(engine.stats().solver_rebuilds, 1u);
}

TEST(IncrementalBsat, RetractionRestoresTheModelCount) {
  Rng rng(303);
  const Cnf cnf = random_cnf(8, 16, 3, rng);
  const std::vector<Var> proj{0, 1, 2, 3, 4, 5, 6, 7};
  IncrementalBsat engine(cnf, proj);
  const auto first = engine.enumerate_cell(0, 100000, Deadline::never(), true);
  ASSERT_TRUE(first.exhausted);
  ASSERT_GT(first.count, 0u);
  // The first enumeration blocked every model; retraction must have undone
  // that, or the second pass would find nothing.
  const auto second = engine.enumerate_cell(0, 100000, Deadline::never(), true);
  EXPECT_EQ(second.count, first.count);
  EXPECT_EQ(engine.stats().retracted_blocks, first.count + second.count);
  EXPECT_EQ(engine.stats().reused_solves, 1u);
}

TEST(IncrementalBsat, LearntRetentionKeepsVerdictsCorrect) {
  // Many epochs on CNF+XOR formulas: everything the solver learns in one
  // cell must stay valid in every later cell.
  Rng rng(404);
  const std::vector<Var> proj{0, 1, 2, 3, 4, 5, 6};
  for (int round = 0; round < 6; ++round) {
    const Cnf cnf = random_cnf_xor(9, 16, 3, 2, rng);
    IncrementalBsat engine(cnf, proj);
    for (int epoch = 0; epoch < 8; ++epoch) {
      engine.begin_hash();
      const XorHash h = draw_xor_hash(proj, 4, rng);
      engine.push_rows(h);
      for (std::size_t m : {4u, 1u, 2u}) {
        const auto r =
            engine.enumerate_cell(m, 100000, Deadline::never(), false);
        ASSERT_TRUE(r.exhausted);
        EXPECT_EQ(r.count, reference_cell_count(cnf, h, m, proj))
            << "round " << round << " epoch " << epoch << " m " << m;
      }
    }
  }
}

TEST(IncrementalBsat, GaussReductionSoundWithAbsorberRows) {
  // Formulas whose XOR rows live entirely inside the priority set — the
  // shape that exercises reduce_priority_local_xors with absorber columns.
  Rng rng(505);
  const std::vector<Var> s{0, 1, 2, 3, 4, 5};
  for (int round = 0; round < 10; ++round) {
    Cnf cnf = random_cnf(10, 20, 3, rng);
    cnf.set_sampling_set(s);
    IncrementalBsat engine(cnf, s);
    for (std::size_t m : {1u, 3u, 5u}) {
      engine.begin_hash();
      const XorHash h = draw_xor_hash(s, m, rng);
      engine.push_rows(h);
      const auto r = engine.enumerate_cell(m, 100000, Deadline::never(), true);
      ASSERT_TRUE(r.exhausted);
      EXPECT_EQ(r.count, reference_cell_count(cnf, h, m, s))
          << "round " << round << " m " << m;
      for (const auto& model : r.models) {
        Model truncated = model;
        truncated.resize(static_cast<std::size_t>(cnf.num_vars()));
        EXPECT_TRUE(cnf.satisfied_by(truncated));
      }
    }
  }
}

TEST(IncrementalBsat, UnsatBaseFormulaStaysUnsat) {
  Cnf cnf(2);
  cnf.add_clause({Lit(0, false)});
  cnf.add_clause({Lit(0, true)});
  IncrementalBsat engine(cnf, {0, 1});
  Rng rng(1);
  engine.push_rows(draw_xor_hash({0, 1}, 1, rng));
  EXPECT_EQ(engine.enumerate_cell(0, 10, Deadline::never(), false).count, 0u);
  EXPECT_EQ(engine.enumerate_cell(1, 10, Deadline::never(), false).count, 0u);
}

TEST(IncrementalBsat, StoreKeepsCountsExactUnderMixedCalls) {
  // Count-only calls read the epoch's model store, witness calls only
  // write it; in any order, at any level and cap, a call still returns
  // min(|cell(m)|, cap) and is exhausted exactly when the cell is below
  // the cap.  Rows arrive in two pushes, so stored depths must extend.
  // Odd epochs hash over all variables, which S does not determine, so
  // the store must stay unused there.
  Rng rng(606);
  const std::vector<Var> proj{0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<Var> all{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (int round = 0; round < 8; ++round) {
    const Cnf cnf = random_cnf_xor(10, 14, 3, 1, rng);
    IncrementalBsat engine(cnf, proj);
    for (int epoch = 0; epoch < 4; ++epoch) {
      engine.begin_hash();
      const XorHash h = draw_xor_hash(epoch % 2 == 0 ? proj : all, 6, rng);
      XorHash first, second;
      first.rows.assign(h.rows.begin(), h.rows.begin() + 3);
      second.rows.assign(h.rows.begin() + 3, h.rows.end());
      engine.push_rows(first);
      for (int call = 0; call < 12; ++call) {
        if (call == 6) engine.push_rows(second);
        const std::size_t m = rng.below(engine.hash_level() + 1);
        const std::uint64_t cap = 1 + rng.below(40);
        const bool witness = rng.flip(0.3);
        const auto r = engine.enumerate_cell(m, cap, Deadline::never(), witness);
        const std::uint64_t truth = reference_cell_count(cnf, h, m, proj);
        EXPECT_EQ(r.count, std::min(truth, cap))
            << "round " << round << " epoch " << epoch << " call " << call
            << " m " << m << " cap " << cap << " witness " << witness;
        EXPECT_EQ(r.exhausted, truth < cap)
            << "round " << round << " epoch " << epoch << " call " << call;
        if (witness) {
          EXPECT_EQ(r.models.size(), r.count);
        }
      }
    }
  }
}

TEST(IncrementalBsat, CountAfterWitnessEnumerationMakesNoSolverCall) {
  // A witness enumeration of 90 models at level 0 records them; a
  // count-only probe right after it on the same engine, capped at 53,
  // finds all it needs among them.
  const Cnf cnf(10);  // 1024 models
  IncrementalBsat engine(cnf, {});
  const auto witnesses = engine.enumerate_cell(0, 90, Deadline::never(), true);
  ASSERT_EQ(witnesses.count, 90u);
  EnumerateResult count;
  const std::uint64_t calls = test::solver_calls([&] {
    count = engine.enumerate_cell(0, 53, Deadline::never(), false);
  });
  EXPECT_EQ(count.count, 53u);
  EXPECT_FALSE(count.exhausted);
  EXPECT_EQ(calls, 0u);
}

TEST(IncrementalBsat, CountBelowAnExhaustedCellEnumeratesOnlyTheRest) {
  // Levels nest: after cell(m) is exhausted with c models, those c are
  // members of cell(m - 1), so counting it to the cap takes at most
  // cap - c solver calls (cap - c models, or fewer models plus the final
  // unsatisfiable call).
  Rng rng(707);
  const std::vector<Var> proj{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::uint64_t cap = 54;
  int checked = 0;
  for (int round = 0; round < 6; ++round) {
    const Cnf cnf = random_cnf(12, 10, 3, rng);
    IncrementalBsat engine(cnf, proj);
    for (int epoch = 0; epoch < 6; ++epoch) {
      engine.begin_hash();
      const XorHash h = draw_xor_hash(proj, 8, rng);
      engine.push_rows(h);
      const std::size_t m = 2 + rng.below(6);
      const auto small = engine.enumerate_cell(m, cap, Deadline::never(), false);
      if (!small.exhausted || small.count == 0) continue;
      EnumerateResult big;
      const std::uint64_t calls = test::solver_calls([&] {
        big = engine.enumerate_cell(m - 1, cap, Deadline::never(), false);
      });
      EXPECT_EQ(big.count,
                std::min(reference_cell_count(cnf, h, m - 1, proj), cap));
      EXPECT_LE(calls, cap - small.count)
          << "round " << round << " epoch " << epoch << " m " << m;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(IncrementalBsat, TwoEnginesGivenTheSameCallsDoTheSameWork) {
  // Learnt-clause removal must not depend on heap addresses: two engines
  // built at different addresses and given the prologue plus the same
  // leapfrogged iteration sequence report identical solver work.  With
  // model reuse, even the number of solver calls would differ otherwise.
  workloads::CircuitParityOptions o;
  o.state_bits = 12;
  o.input_bits = 4;
  o.rounds = 2;
  o.parity_constraints = 5;
  o.seed = 1;
  const Cnf cnf = workloads::make_circuit_parity_bench(o, "determinism");
  const std::vector<Var> s = cnf.sampling_set_or_all();
  ApproxMcOptions amc;
  amc.epsilon = 0.8;
  amc.delta = 0.2;
  const std::uint64_t pivot = approxmc_pivot(amc.epsilon);
  const auto run = [&](IncrementalBsat& engine) {
    const SolverStats before = engine.stats();
    const std::uint64_t calls = test::solver_calls([&] {
      engine.enumerate_cell(0, pivot + 1, Deadline::never(), false);
      const Rng base(99);
      std::uint32_t hint = 0;
      for (std::uint64_t i = 0; i < 3; ++i) {
        Rng stream = base.fork_stream(i);
        const ApproxMcCoreOutcome out = approxmc_core_iteration(
            engine, static_cast<std::uint32_t>(s.size()), pivot, amc, hint,
            stream, i);
        if (const auto m = leapfrog_publish(out)) hint = *m;
      }
    });
    const SolverStats work = engine.stats();
    EXPECT_GT(work.removed_clauses, before.removed_clauses);
    return std::make_pair(obs::to_json(work), calls);
  };
  const auto a = std::make_unique<IncrementalBsat>(cnf, s);
  std::vector<std::unique_ptr<char[]>> spacer;
  for (std::size_t k = 0; k < 64; ++k)
    spacer.push_back(std::make_unique<char[]>(48 + k));
  const auto b = std::make_unique<IncrementalBsat>(cnf, s);
  const auto work_a = run(*a);
  const auto work_b = run(*b);
  EXPECT_EQ(work_a.first, work_b.first);
  EXPECT_EQ(work_a.second, work_b.second);
}

TEST(ApproxMc, OnePersistentSolverPerRun) {
  // The acceptance criterion of this PR: probe() performs zero Solver
  // constructions per BSAT call — the whole run shares one solver.
  Cnf cnf(14);
  cnf.add_clause({Lit(0, false), Lit(0, true)});
  Rng rng(3);
  const auto r = approx_count(cnf, {}, rng);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.solver_rebuilds, 1u);
  EXPECT_GT(r.bsat_calls, 1u);
  EXPECT_EQ(r.reused_solves, r.bsat_calls - 1);
  EXPECT_GT(r.retracted_blocks, 0u);
}

TEST(UniGen, OnePersistentSolverAcrossSamples) {
  Cnf cnf(10);
  cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
  cnf.add_clause({Lit(3, false), Lit(4, true)});
  cnf.add_clause({Lit(5, false), Lit(6, false), Lit(7, true)});
  cnf.add_clause({Lit(8, false), Lit(9, false), Lit(0, true)});
  Rng rng(7);
  UniGen sampler(cnf, {}, rng);
  ASSERT_TRUE(sampler.prepare());
  for (int i = 0; i < 25; ++i) sampler.sample();
  const auto& st = sampler.stats();
  EXPECT_GT(st.sample_bsat_calls, 25u);
  // accept_cell() shares one persistent solver across every sample (the
  // engine is built once, in prepare's easy-case check).
  EXPECT_EQ(st.solver_rebuilds, 1u);
  EXPECT_GT(st.reused_solves, 0u);
  EXPECT_GT(st.retracted_blocks, 0u);
  // prepare's ApproxMC run used that same engine: it is worker 0 of the
  // instance's width-1 pool, so the count reports one build too.
  EXPECT_EQ(st.counter_solver_rebuilds, 1u);
}

}  // namespace
}  // namespace unigen
