#include "graph/csr.hpp"

#include "sched/count_sort.hpp"

namespace pgraph::graph {

namespace {

/// Arc 2e is edges[e] as u -> v, arc 2e+1 as v -> u; the count sort by
/// source vertex lists each vertex's arcs in edge order.
template <class E>
void build(std::size_t n, const std::vector<E>& edges,
           std::vector<std::size_t>& offsets, std::vector<VertexId>& targets,
           std::vector<Weight>* weights) {
  const auto src = [&](std::size_t a) {
    const E& e = edges[a / 2];
    return static_cast<std::size_t>(a & 1 ? e.v : e.u);
  };
  const std::size_t arcs = 2 * edges.size();
  sched::count_sort_offsets(arcs, n, src, offsets);
  targets.resize(arcs);
  if (weights) weights->resize(arcs);
  std::vector<std::size_t> cursor;
  sched::count_sort_scatter(
      arcs, src,
      [&](std::size_t a, std::size_t pos) {
        const E& e = edges[a / 2];
        targets[pos] = a & 1 ? e.u : e.v;
        if constexpr (requires { e.w; })
          if (weights) (*weights)[pos] = e.w;
      },
      offsets, cursor);
}

}  // namespace

Csr::Csr(const EdgeList& el) { build(el.n, el.edges, offsets_, targets_, nullptr); }

Csr::Csr(const WEdgeList& el) {
  build(el.n, el.edges, offsets_, targets_, &weights_);
}

}  // namespace pgraph::graph
