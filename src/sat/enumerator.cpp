#include "sat/enumerator.hpp"

namespace unigen {

EnumerateResult enumerate_models(Solver& solver,
                                 const EnumerateOptions& options) {
  EnumerateResult result;
  std::vector<Var> projection = options.projection;
  if (projection.empty()) {
    projection.resize(static_cast<std::size_t>(solver.num_vars()));
    for (Var v = 0; v < solver.num_vars(); ++v)
      projection[static_cast<std::size_t>(v)] = v;
  }
  // Projection-aware branching: decide the sampling set first so that the
  // dependent variables follow by propagation and parity conflicts stay
  // shallow.  Skipped when the projection is large (the linear priority
  // scan would dominate) or trivial — triviality is judged against the
  // formula's own variable count, not the solver's (which includes engine
  // auxiliaries on the incremental path).
  const auto formula_vars = static_cast<std::size_t>(
      options.formula_vars > 0 ? options.formula_vars : solver.num_vars());
  if (projection.size() < formula_vars && projection.size() <= 4096)
    solver.set_priority_vars(projection);

  // One scratch buffer for every per-model blocking clause; add_clause_from
  // copies only the surviving literals into the stored clause, so the hot
  // loop performs no per-model vector churn.
  std::vector<Lit> blocking;
  blocking.reserve(projection.size() + 1);

  const auto cancelled = [&options] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_acquire);
  };
  while (result.count < options.max_models) {
    if (cancelled()) {
      result.cancelled = true;
      return result;
    }
    if (options.deadline.expired()) {
      result.timed_out = true;
      return result;
    }
    // No conflict limit: a search stops only on the deadline or the token.
    const lbool status = solver.solve_limited(
        options.assumptions, options.deadline, 0, options.cancel);
    if (status == lbool::Undef) {
      // Undef = the deadline or the token fired mid-search; a tripped token
      // wins over a concurrently expired deadline — the caller asked to
      // stop either way.
      if (cancelled())
        result.cancelled = true;
      else
        result.timed_out = true;
      return result;
    }
    if (status == lbool::False) {
      result.exhausted = true;
      return result;
    }
    const Model& m = solver.model();
    ++result.count;
    if (options.on_model) options.on_model(m);
    if (options.store_models) result.models.push_back(m);

    // Block this S-projection: at least one sampling variable must differ.
    blocking.clear();
    for (const Var v : projection) {
      const lbool val = m[static_cast<std::size_t>(v)];
      blocking.push_back(Lit(v, val == lbool::True));
    }
    if (options.block_activation.valid())
      blocking.push_back(options.block_activation);
    if (!solver.add_clause_from(blocking.data(), blocking.size())) {
      result.exhausted = true;  // blocking made the formula UNSAT
      return result;
    }
    ++result.blocks_added;
  }
  return result;  // hit max_models; space may or may not be exhausted
}

EnumerateResult bsat(const Cnf& cnf, std::uint64_t max_models,
                     const Deadline& deadline) {
  Solver solver;
  solver.load(cnf);
  EnumerateOptions options;
  options.max_models = max_models;
  options.deadline = deadline;
  options.projection = cnf.sampling_set_or_all();
  return enumerate_models(solver, options);
}

}  // namespace unigen
