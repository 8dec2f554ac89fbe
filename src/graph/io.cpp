#include "graph/io.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace pgraph::graph {

void write_dimacs(std::ostream& os, const EdgeList& el) {
  os << "c pgas-graph edge list\n";
  os << "p edge " << el.n << ' ' << el.m() << '\n';
  for (const Edge& e : el.edges)
    os << "e " << (e.u + 1) << ' ' << (e.v + 1) << '\n';
}

void write_dimacs(std::ostream& os, const WEdgeList& el) {
  os << "c pgas-graph weighted edge list\n";
  os << "p sp " << el.n << ' ' << el.m() << '\n';
  for (const WEdge& e : el.edges)
    os << "e " << (e.u + 1) << ' ' << (e.v + 1) << ' ' << e.w << '\n';
}

namespace {

template <class EL, bool Weighted>
EL read_dimacs_impl(std::istream& is) {
  EL el;
  std::string line;
  bool have_header = false;
  std::size_t expect_m = 0;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    char kind = 0;
    ls >> kind;
    if (kind == 'p') {
      std::string fmt;
      std::size_t n = 0, m = 0;
      ls >> fmt >> n >> m;
      if (!ls) throw std::runtime_error("dimacs: malformed problem line");
      el.n = n;
      expect_m = m;
      el.edges.reserve(m);
      have_header = true;
    } else if (kind == 'e') {
      if (!have_header) throw std::runtime_error("dimacs: edge before header");
      std::uint64_t u = 0, v = 0, w = 0;
      if constexpr (Weighted) {
        ls >> u >> v >> w;
      } else {
        ls >> u >> v;
      }
      if (!ls || u == 0 || v == 0 || u > el.n || v > el.n)
        throw std::runtime_error("dimacs: malformed edge line");
      if constexpr (Weighted) {
        el.edges.push_back({u - 1, v - 1, w});
      } else {
        el.edges.push_back({u - 1, v - 1});
      }
    } else {
      throw std::runtime_error("dimacs: unknown line kind");
    }
  }
  if (!have_header) throw std::runtime_error("dimacs: missing problem line");
  if (el.edges.size() != expect_m)
    throw std::runtime_error("dimacs: edge count mismatch");
  return el;
}

}  // namespace

EdgeList read_dimacs(std::istream& is) {
  return read_dimacs_impl<EdgeList, false>(is);
}

WEdgeList read_dimacs_weighted(std::istream& is) {
  return read_dimacs_impl<WEdgeList, true>(is);
}

}  // namespace pgraph::graph
