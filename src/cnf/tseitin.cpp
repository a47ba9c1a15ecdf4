#include "cnf/tseitin.hpp"

namespace unigen {

TseitinResult tseitin_encode(const Circuit& circuit) {
  TseitinResult result;
  Cnf& cnf = result.cnf;

  // One variable per node.  Node 0 (constant false) gets a variable pinned
  // to false so that signal translation stays uniform.
  const std::size_t n = circuit.num_nodes();
  std::vector<Var> node_var(n);
  for (std::size_t i = 0; i < n; ++i) node_var[i] = cnf.new_var();

  auto sig_lit = [&](Circuit::Sig s) {
    return Lit(node_var[Circuit::sig_node(s)], Circuit::sig_negated(s));
  };

  cnf.add_unit(Lit(node_var[0], true));  // constant node is false

  for (std::size_t idx = 1; idx < n; ++idx) {
    const auto& nd = circuit.node(idx);
    const Lit g(node_var[idx], false);
    switch (nd.kind) {
      case Circuit::NodeKind::Input:
        result.input_vars.push_back(node_var[idx]);
        break;
      case Circuit::NodeKind::And: {
        const Lit a = sig_lit(nd.a), b = sig_lit(nd.b);
        cnf.add_binary(~g, a);
        cnf.add_binary(~g, b);
        cnf.add_ternary(g, ~a, ~b);
        break;
      }
      case Circuit::NodeKind::Xor: {
        const Lit a = sig_lit(nd.a), b = sig_lit(nd.b);
        // x_g = (x_a ⊕ s_a) ⊕ (x_b ⊕ s_b)  ⟺  x_g ⊕ x_a ⊕ x_b = s_a ⊕ s_b.
        cnf.add_xor({g.var(), a.var(), b.var()}, a.sign() ^ b.sign());
        break;
      }
      case Circuit::NodeKind::Const:
        break;
    }
  }

  for (const auto o : circuit.outputs()) result.output_lits.push_back(sig_lit(o));
  for (const Lit l : result.output_lits) cnf.add_unit(l);
  cnf.set_sampling_set(result.input_vars);
  return result;
}

}  // namespace unigen
