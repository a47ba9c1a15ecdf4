#pragma once
// Tseitin encoding of a Circuit into CNF.
//
// Every circuit node receives one CNF variable.  An AND gate becomes 3
// clauses; an XOR gate becomes one native 3-variable XOR row
// (g ⊕ a ⊕ b = c), not 4 OR-clauses.  CryptoMiniSAT recovers exactly these
// XORs from the clausal encoding anyway ("xor recovery"); emitting them
// natively lets the solver's Gaussian elimination and parity propagation
// see the circuit's linear structure, which is essential for refuting
// empty hash cells efficiently.  The elimination, which runs once per
// solver over these rows with the gate columns first, also projects the
// parities that XOR-gate chains imply onto the sampling set, so the search
// starts out knowing them (sat/gaussian.cpp).  Every primary output is
// asserted true by a unit clause (the usual way a constraint circuit
// becomes a constraint CNF).
//
// The resulting CNF's sampling set is set to the primary input variables:
// in any satisfying assignment the auxiliary (gate) variables are uniquely
// determined by the inputs, so the inputs are an independent support — the
// property UniGen relies on (paper Section 4).

#include <vector>

#include "cnf/circuit.hpp"
#include "cnf/cnf.hpp"

namespace unigen {

struct TseitinResult {
  Cnf cnf;
  /// CNF variable of each primary input, in circuit input order.
  std::vector<Var> input_vars;
  /// CNF literal of each primary output, in circuit output order.
  std::vector<Lit> output_lits;
};

TseitinResult tseitin_encode(const Circuit& circuit);

}  // namespace unigen
