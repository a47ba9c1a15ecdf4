#include "sat/incremental_bsat.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace unigen {

namespace {
std::atomic<std::uint64_t> g_total_constructions{0};

/// Retired hash rows after which begin_hash rebuilds the solver: each
/// leaves one frozen absorber variable behind (the rows and the learnts
/// mentioning them are deleted outright).
constexpr std::size_t kMaxRetiredRows = 4096;
/// Learnt clauses carried across a hash-epoch boundary.
constexpr std::size_t kLearntsAcrossEpochs = 128;

std::vector<Var> all_vars_if_empty(std::vector<Var> projection, Var n) {
  if (projection.empty()) {
    projection.resize(static_cast<std::size_t>(n));
    for (Var v = 0; v < n; ++v) projection[static_cast<std::size_t>(v)] = v;
  }
  return projection;
}

bool odd_overlap(const std::uint64_t* a, const std::uint64_t* b,
                 std::size_t words) {
  std::uint64_t acc = 0;
  for (std::size_t w = 0; w < words; ++w) acc ^= a[w] & b[w];
  return (std::popcount(acc) & 1) != 0;
}
}  // namespace

IncrementalBsat::ModelStore::ModelStore(const std::vector<Var>& projection,
                                        Var formula_vars)
    : vars_(projection),
      position_(static_cast<std::size_t>(formula_vars), -1),
      words_((projection.size() + 63) / 64),
      scratch_(words_) {
  for (std::size_t i = 0; i < vars_.size(); ++i)
    position_[static_cast<std::size_t>(vars_[i])] =
        static_cast<std::int32_t>(i);
}

void IncrementalBsat::ModelStore::clear() {
  usable_ = true;
  row_bits_.clear();
  row_rhs_.clear();
  bits_.clear();
  depth_.clear();
  hashes_.clear();
}

void IncrementalBsat::ModelStore::push_rows(const XorHash& h) {
  if (!usable_) return;
  const std::size_t old_rows = row_rhs_.size();
  for (const XorConstraint& row : h.rows) {
    const std::size_t at = row_bits_.size();
    row_bits_.resize(at + words_, 0);
    for (const Var v : row.vars) {
      const std::int32_t i =
          static_cast<std::size_t>(v) < position_.size()
              ? position_[static_cast<std::size_t>(v)]
              : -1;
      if (i < 0) {
        usable_ = false;  // the row reads a variable S does not determine
        return;
      }
      row_bits_[at + static_cast<std::size_t>(i) / 64] ^=
          std::uint64_t{1} << (i % 64);
    }
    row_rhs_.push_back(row.rhs ? 1 : 0);
  }
  for (std::size_t j = 0; j < depth_.size(); ++j)
    if (depth_[j] == old_rows)
      depth_[j] = depth_from(bits_.data() + j * words_, old_rows);
}

std::size_t IncrementalBsat::ModelStore::depth_from(const std::uint64_t* bits,
                                                    std::size_t from) const {
  std::size_t d = from;
  while (d < row_rhs_.size() &&
         odd_overlap(bits, row_bits_.data() + d * words_, words_) ==
             (row_rhs_[d] != 0))
    ++d;
  return d;
}

void IncrementalBsat::ModelStore::record(const Model& model) {
  std::fill(scratch_.begin(), scratch_.end(), 0);
  for (std::size_t i = 0; i < vars_.size(); ++i)
    if (model[static_cast<std::size_t>(vars_[i])] == lbool::True)
      scratch_[i / 64] |= std::uint64_t{1} << (i % 64);
  std::uint64_t hash = 0x9e3779b97f4a7c15ull;
  for (const std::uint64_t w : scratch_) {
    hash = (hash ^ w) * 0xff51afd7ed558ccdull;
    hash ^= hash >> 29;
  }
  if (!hashes_.insert(hash).second) return;
  bits_.insert(bits_.end(), scratch_.begin(), scratch_.end());
  depth_.push_back(depth_from(scratch_.data(), 0));
}

std::uint64_t IncrementalBsat::ModelStore::count_in_cell(std::size_t m) const {
  if (!usable_) return 0;
  std::uint64_t n = 0;
  for (const std::size_t d : depth_) n += d >= m ? 1 : 0;
  return n;
}

void IncrementalBsat::ModelStore::block_cell(std::size_t m, Lit activation,
                                             Solver& solver) const {
  std::vector<Lit> block;
  block.reserve(vars_.size() + 1);
  for (std::size_t j = 0; j < depth_.size(); ++j) {
    if (depth_[j] < m) continue;
    const std::uint64_t* bits = bits_.data() + j * words_;
    block.clear();
    for (std::size_t i = 0; i < vars_.size(); ++i)
      block.push_back(Lit(vars_[i], ((bits[i / 64] >> (i % 64)) & 1u) != 0));
    block.push_back(activation);
    solver.add_clause_from(block.data(), block.size());
  }
}

IncrementalBsat::IncrementalBsat(const Cnf& cnf, std::vector<Var> projection)
    : cnf_(cnf),
      projection_(all_vars_if_empty(std::move(projection), cnf.num_vars())),
      store_(projection_, cnf.num_vars()) {
  g_total_constructions.fetch_add(1, std::memory_order_relaxed);
  rebuild();
}

std::uint64_t IncrementalBsat::total_constructions() {
  return g_total_constructions.load(std::memory_order_relaxed);
}

void IncrementalBsat::rebuild() {
  // Only ever happens between hash epochs (constructor or begin_hash), so
  // there are no active rows to carry over.
  assert(activations_.empty());
  if (solver_) accum_.merge(solver_->stats());
  solver_ = std::make_unique<Solver>();
  solver_->load(cnf_);
  ++accum_.solver_rebuilds;
  solves_on_build_ = 0;
  retired_rows_ = 0;
}

void IncrementalBsat::begin_hash() {
  store_.clear();
  retired_rows_ += activations_.size();
  if (retired_rows_ > kMaxRetiredRows) {
    // The rebuild replaces the solver wholesale; skip the (discarded)
    // retirement elimination and learnt trim.
    activations_.clear();
    rebuild();
    return;
  }
  std::vector<Var> absorbers;
  absorbers.reserve(activations_.size());
  for (const Lit a : activations_) absorbers.push_back(a.var());
  solver_->retire_rows(absorbers);
  solver_->shrink_learnts(kLearntsAcrossEpochs);
  activations_.clear();
}

void IncrementalBsat::push_rows(const XorHash& h) {
  h.attach_to(*solver_, activations_);
  store_.push_rows(h);
}

EnumerateResult IncrementalBsat::enumerate_cell(
    std::size_t m, std::uint64_t max_models, const Deadline& deadline,
    bool store_models, const std::atomic<bool>* cancel) {
  assert(m <= activations_.size());
  // Observability only (outside every RNG path): one span + latency sample
  // per BSAT call, tagged with the hash level probed.
  static obs::Counter& cells = obs::metrics().counter("bsat.cells");
  static obs::Histogram& cell_seconds =
      obs::metrics().histogram("cell.enumeration_seconds");
  cells.add();
  obs::ScopedTimer cell_timer(cell_seconds);
  obs::Span span("bsat.call");
  span.set_value(m);
  if (++solves_on_build_ > 1) ++accum_.reused_solves;

  // Only count-only calls read the store, so a witness call searches
  // exactly as it would without one.
  const std::uint64_t known = store_models ? 0 : store_.count_in_cell(m);
  if (known >= max_models) {
    EnumerateResult full;
    full.count = max_models;
    return full;
  }
  EnumerateOptions eopts;
  eopts.max_models = max_models - known;
  eopts.deadline = deadline;
  eopts.cancel = cancel;
  eopts.projection = projection_;
  eopts.store_models = store_models;
  eopts.formula_vars = cnf_.num_vars();
  eopts.assumptions.assign(activations_.begin(),
                           activations_.begin() +
                               static_cast<std::ptrdiff_t>(m));
  // Per-cell selector: every blocking clause of this cell contains the
  // positive selector, enumeration assumes its negation, and one unit
  // afterwards retracts the whole cell's blocks.
  const Var selector = solver_->new_var();
  eopts.assumptions.push_back(Lit(selector, true));
  eopts.block_activation = Lit(selector, false);
  // The known members of the cell get the blocks their enumeration would
  // have added, so they retract with the cell and the search skips them.
  if (known > 0) store_.block_cell(m, eopts.block_activation, *solver_);
  if (store_.usable())
    eopts.on_model = [this](const Model& model) { store_.record(model); };

  EnumerateResult result = enumerate_models(*solver_, eopts);
  result.count += known;
  result.blocks_added += known;

  // The unit is added even for empty cells: it freezes the selector at the
  // root, so later solves never branch on it.
  solver_->add_clause({Lit(selector, false)});
  if (result.blocks_added > 0) {
    solver_->simplify();  // the unit satisfied all of this cell's blocks;
                          // sweep them (and any stale learnts) out
    accum_.retracted_blocks += result.blocks_added;
  }
  return result;
}

SolverStats IncrementalBsat::stats() const {
  SolverStats merged = accum_;
  merged.merge(solver_->stats());
  return merged;
}

}  // namespace unigen
