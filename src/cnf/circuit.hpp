#pragma once
// A small combinational circuit IR (AIG + XOR nodes) with structural
// hashing, plus word-level helper operations (adders, multipliers,
// comparators).  Circuits are the source domain for the benchmark families
// in this reproduction: Tseitin-encoding a circuit yields a CNF whose
// auxiliary variables form a *dependent* support, so the primary inputs are
// an independent support — the exact situation Section 4 of the paper
// exploits ("the variables introduced by the encoding form a dependent
// support of F").

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace unigen {

class Circuit {
 public:
  /// A signal: node index with a complement bit (AIG-literal style).
  using Sig = std::uint32_t;

  static constexpr Sig kFalse = 0;  // node 0 is the constant-false node
  static constexpr Sig kTrue = 1;

  Circuit();

  /// Number of structural nodes (including the constant node).
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_inputs() const { return inputs_.size(); }

  /// Primary inputs.
  Sig add_input(std::string name = "");
  const std::vector<Sig>& inputs() const { return inputs_; }

  /// Primary outputs (named signals of interest).
  void add_output(Sig s, std::string name = "");
  const std::vector<Sig>& outputs() const { return outputs_; }
  const std::vector<std::string>& output_names() const { return output_names_; }

  // --- gate constructors (constant-folding + structural hashing) ---
  static Sig lnot(Sig a) { return a ^ 1u; }
  Sig land(Sig a, Sig b);
  Sig lor(Sig a, Sig b) { return lnot(land(lnot(a), lnot(b))); }
  Sig lxor(Sig a, Sig b);
  Sig lxnor(Sig a, Sig b) { return lnot(lxor(a, b)); }
  Sig implies(Sig a, Sig b) { return lor(lnot(a), b); }
  /// if s then t else e.
  Sig mux(Sig s, Sig t, Sig e);
  /// Majority of three (full-adder carry).
  Sig maj3(Sig a, Sig b, Sig c);

  // --- n-ary trees ---
  Sig and_n(const std::vector<Sig>& xs);
  Sig or_n(const std::vector<Sig>& xs);
  Sig xor_n(const std::vector<Sig>& xs);

  // --- word-level helpers; words are little-endian vectors of Sig ---
  std::vector<Sig> add_word(const std::vector<Sig>& a,
                            const std::vector<Sig>& b, bool keep_carry = false);
  std::vector<Sig> mul_word(const std::vector<Sig>& a,
                            const std::vector<Sig>& b, std::size_t out_width);
  Sig eq_word(const std::vector<Sig>& a, const std::vector<Sig>& b);
  /// a < b, unsigned.
  Sig ult_word(const std::vector<Sig>& a, const std::vector<Sig>& b);
  std::vector<Sig> constant_word(std::uint64_t value, std::size_t width);
  std::vector<Sig> input_word(std::size_t width, const std::string& prefix);

  // --- module instantiation ---
  /// Copies `sub` into this circuit, binding sub's inputs to `bindings`
  /// (bindings.size() must equal sub.num_inputs()).  Returns sub's outputs
  /// translated into this circuit.
  std::vector<Sig> append(const Circuit& sub, const std::vector<Sig>& bindings);

  // --- node inspection (used by the Tseitin encoder) ---
  enum class NodeKind : std::uint8_t { Const, Input, And, Xor };
  struct Node {
    NodeKind kind;
    Sig a = 0, b = 0;  // fanins (valid for And/Xor)
  };
  const Node& node(std::size_t idx) const { return nodes_[idx]; }
  static std::size_t sig_node(Sig s) { return s >> 1; }
  static bool sig_negated(Sig s) { return (s & 1u) != 0; }

  /// Evaluates all outputs under the given input values (simulation).
  std::vector<bool> simulate(const std::vector<bool>& input_values) const;

 private:
  Sig make_node(NodeKind kind, Sig a, Sig b);

  std::vector<Node> nodes_;
  std::vector<Sig> inputs_;
  std::vector<std::string> input_names_;
  std::vector<Sig> outputs_;
  std::vector<std::string> output_names_;
  // structural hashing: (kind, a, b) -> node signal
  std::unordered_map<std::uint64_t, Sig> strash_;
};

}  // namespace unigen
