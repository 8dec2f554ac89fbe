#pragma once

#include <iosfwd>

#include "graph/edge_list.hpp"

namespace pgraph::graph {

/// DIMACS-like text format:
///   c <comment>
///   p edge <n> <m>          (or "p sp <n> <m>" for weighted)
///   e <u> <v> [<w>]         (1-based vertex ids, as in DIMACS)
/// Throws std::runtime_error on malformed input.
void write_dimacs(std::ostream& os, const EdgeList& el);
void write_dimacs(std::ostream& os, const WEdgeList& el);
EdgeList read_dimacs(std::istream& is);
WEdgeList read_dimacs_weighted(std::istream& is);

}  // namespace pgraph::graph
