#include "counting/exact_counter.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "sat/enumerator.hpp"

namespace unigen {
namespace {

using ClauseSet = std::vector<std::vector<Lit>>;

struct CounterTimeout {};

/// The component cache is cleared when it reaches this many entries.
constexpr std::size_t kMaxCacheEntries = 1u << 20;

/// Sorted list of distinct variables occurring in `clauses`.
std::vector<Var> occurring_vars(const ClauseSet& clauses) {
  std::vector<Var> vars;
  for (const auto& c : clauses)
    for (const Lit l : c) vars.push_back(l.var());
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

/// Applies literal `l` (true): drops satisfied clauses, strips ~l.
/// Returns false via `conflict` when an empty clause appears.
ClauseSet assign(const ClauseSet& clauses, Lit l, bool& conflict) {
  conflict = false;
  ClauseSet out;
  out.reserve(clauses.size());
  for (const auto& c : clauses) {
    bool satisfied = false;
    for (const Lit x : c) {
      if (x == l) {
        satisfied = true;
        break;
      }
    }
    if (satisfied) continue;
    std::vector<Lit> reduced;
    reduced.reserve(c.size());
    for (const Lit x : c) {
      if (x != ~l) reduced.push_back(x);
    }
    if (reduced.empty()) {
      conflict = true;
      return {};
    }
    out.push_back(std::move(reduced));
  }
  return out;
}

struct KeyHash {
  std::size_t operator()(const std::vector<std::int32_t>& key) const {
    std::size_t h = 1469598103934665603ull;
    for (const auto x : key) {
      h ^= static_cast<std::size_t>(x) + 0x9e3779b9;
      h *= 1099511628211ull;
    }
    return h;
  }
};

class Engine {
 public:
  Engine(const ExactCounterOptions& options, ExactCounterStats& stats)
      : options_(options), stats_(stats) {}

  BigUint count(ClauseSet clauses) { return count_rec(std::move(clauses)); }

 private:
  /// Count over exactly the variables occurring in `clauses`.
  BigUint count_rec(ClauseSet clauses) {
    if (options_.deadline.expired()) throw CounterTimeout{};

    std::size_t freed_bits = 0;  // vars eliminated without branching

    // Iterated unit propagation; keeps the free-variable ledger.
    for (;;) {
      if (clauses.empty()) return BigUint::pow2(freed_bits);
      Lit unit = kUndefLit;
      for (const auto& c : clauses) {
        if (c.size() == 1) {
          unit = c[0];
          break;
        }
      }
      if (!unit.valid()) break;
      const std::size_t before = occurring_vars(clauses).size();
      bool conflict = false;
      clauses = assign(clauses, unit, conflict);
      if (conflict) return BigUint{};
      const std::size_t after = occurring_vars(clauses).size();
      freed_bits += before - after - 1;  // -1: the assigned variable
    }

    // Component decomposition.
    const auto components = split_components(clauses);
    BigUint result = BigUint::pow2(freed_bits);
    if (components.size() > 1) ++stats_.component_splits;
    for (auto& component : components) {
      const BigUint sub = count_cached(std::move(component));
      if (sub.is_zero()) return BigUint{};
      result = result * sub;
    }
    return result;
  }

  BigUint count_cached(ClauseSet clauses) {
    const auto key = canonical_key(clauses);
    ++stats_.cache_lookups;
    if (const auto it = cache_.find(key); it != cache_.end()) {
      ++stats_.cache_hits;
      return it->second;
    }

    // Branch on the most frequent variable.
    ++stats_.branch_decisions;
    const Var v = most_frequent_var(clauses);
    const std::size_t scope = occurring_vars(clauses).size();
    BigUint total;
    for (const bool phase : {false, true}) {
      bool conflict = false;
      ClauseSet sub = assign(clauses, Lit(v, phase), conflict);
      if (conflict) continue;
      const std::size_t sub_scope = occurring_vars(sub).size();
      BigUint cnt = count_rec(std::move(sub));
      cnt <<= scope - sub_scope - 1;
      total += cnt;
    }
    if (cache_.size() >= kMaxCacheEntries) cache_.clear();
    cache_.emplace(key, total);
    return total;
  }

  static Var most_frequent_var(const ClauseSet& clauses) {
    std::unordered_map<Var, std::size_t> occurrences;
    for (const auto& c : clauses)
      for (const Lit l : c) ++occurrences[l.var()];
    Var best = clauses[0][0].var();
    std::size_t best_count = 0;
    for (const auto& [v, n] : occurrences) {
      if (n > best_count || (n == best_count && v < best)) {
        best = v;
        best_count = n;
      }
    }
    return best;
  }

  static std::vector<ClauseSet> split_components(const ClauseSet& clauses) {
    // Union-find over variables; clauses join their variables.
    std::unordered_map<Var, Var> parent;
    std::function<Var(Var)> find = [&](Var x) {
      auto it = parent.find(x);
      if (it == parent.end()) {
        parent[x] = x;
        return x;
      }
      if (it->second == x) return x;
      const Var root = find(it->second);
      parent[x] = root;
      return root;
    };
    for (const auto& c : clauses) {
      const Var root = find(c[0].var());
      for (const Lit l : c) parent[find(l.var())] = root;
    }
    std::unordered_map<Var, std::size_t> component_index;
    std::vector<ClauseSet> components;
    for (const auto& c : clauses) {
      const Var root = find(c[0].var());
      const auto [it, inserted] =
          component_index.emplace(root, components.size());
      if (inserted) components.emplace_back();
      components[it->second].push_back(c);
    }
    return components;
  }

  static std::vector<std::int32_t> canonical_key(ClauseSet& clauses) {
    for (auto& c : clauses) std::sort(c.begin(), c.end());
    std::sort(clauses.begin(), clauses.end());
    std::vector<std::int32_t> key;
    for (const auto& c : clauses) {
      for (const Lit l : c) key.push_back(l.index());
      key.push_back(-1);
    }
    return key;
  }

  const ExactCounterOptions& options_;
  ExactCounterStats& stats_;
  std::unordered_map<std::vector<std::int32_t>, BigUint, KeyHash> cache_;
};

}  // namespace

std::optional<BigUint> ExactCounter::count(const Cnf& cnf) {
  const Cnf expanded = cnf.num_xors() > 0 ? cnf.expand_xors() : cnf;
  ClauseSet clauses = expanded.clauses();
  for (const auto& c : clauses) {
    if (c.empty()) return BigUint{};  // explicit empty clause: UNSAT
  }
  // Variables never occurring in any clause are unconstrained and contribute
  // a factor of 2 each.  Expansion auxiliaries always occur, so this counts
  // exactly the isolated *original* variables — and counting over the
  // expanded variable space equals counting over the original one, because
  // every original model extends uniquely to the (defined) auxiliaries.
  const std::vector<Var> occurring = occurring_vars(clauses);
  const std::size_t isolated =
      static_cast<std::size_t>(expanded.num_vars()) - occurring.size();

  Engine engine(options_, stats_);
  try {
    BigUint result = engine.count(std::move(clauses));
    result <<= isolated;
    return result;
  } catch (const CounterTimeout&) {
    return std::nullopt;
  }
}

std::optional<std::uint64_t> count_projected_by_enumeration(
    const Cnf& cnf, const std::vector<Var>& projection, std::uint64_t bound,
    const Deadline& deadline) {
  Solver solver;
  solver.load(cnf);
  EnumerateOptions options;
  options.max_models = bound;
  options.deadline = deadline;
  options.projection = projection;
  options.store_models = false;
  const auto result = enumerate_models(solver, options);
  if (!result.exhausted) return std::nullopt;
  return result.count;
}

}  // namespace unigen
