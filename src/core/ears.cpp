#include "core/ears.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "core/cc_coalesced.hpp"
#include "core/dsu.hpp"
#include "core/euler_tour.hpp"
#include "core/mst_pgas.hpp"

namespace pgraph::core {

namespace {

/// Range-min sparse table (as in bcc.cpp, min-only).
class MinTable {
 public:
  explicit MinTable(const std::vector<std::uint64_t>& a) {
    const std::size_t n = a.size();
    levels_ = n < 2 ? 1 : std::bit_width(n - 1) + 1;
    table_.assign(levels_, a);
    for (std::size_t k = 1; k < levels_; ++k) {
      const std::size_t half = 1ull << (k - 1);
      for (std::size_t i = 0; i + (1ull << k) <= n; ++i)
        table_[k][i] =
            std::min(table_[k - 1][i], table_[k - 1][i + half]);
    }
  }
  std::uint64_t query(std::size_t lo, std::size_t hi) const {
    const std::size_t k = lo == hi ? 0 : std::bit_width(hi - lo + 1) - 1;
    return std::min(table_[k][lo], table_[k][hi + 1 - (1ull << k)]);
  }

 private:
  std::size_t levels_;
  std::vector<std::vector<std::uint64_t>> table_;
};

/// Binary-lifting LCA over the rooted forest (parent/depth from the Euler
/// metrics); a local O(n log n) helper for labeling the nontree edges.
class Lca {
 public:
  Lca(const std::vector<std::uint64_t>& parent,
      const std::vector<std::uint64_t>& depth)
      : depth_(depth) {
    const std::size_t n = parent.size();
    std::uint64_t maxd = 0;
    for (const auto d : depth) maxd = std::max(maxd, d);
    levels_ = maxd < 1 ? 1 : std::bit_width(maxd) + 1;
    up_.assign(levels_, parent);
    for (std::size_t k = 1; k < levels_; ++k)
      for (std::size_t v = 0; v < n; ++v)
        up_[k][v] = up_[k - 1][up_[k - 1][v]];
  }

  std::uint64_t lca(std::uint64_t x, std::uint64_t y) const {
    if (depth_[x] < depth_[y]) std::swap(x, y);
    std::uint64_t diff = depth_[x] - depth_[y];
    for (std::size_t k = 0; diff; ++k, diff >>= 1)
      if (diff & 1) x = up_[k][x];
    if (x == y) return x;
    for (std::size_t k = levels_; k-- > 0;) {
      if (up_[k][x] != up_[k][y]) {
        x = up_[k][x];
        y = up_[k][y];
      }
    }
    return up_[0][x];
  }

 private:
  const std::vector<std::uint64_t>& depth_;
  std::size_t levels_;
  std::vector<std::vector<std::uint64_t>> up_;
};

}  // namespace

EarResult ear_decomposition_pgas(pgas::Runtime& rt,
                                 const graph::EdgeList& el,
                                 const coll::CollectiveOptions& opt) {
  for (const auto& e : el.edges)
    if (e.u == e.v)
      throw std::invalid_argument(
          "ear_decomposition_pgas: self loops unsupported");
  if (el.n >= (1ull << 31))
    throw std::invalid_argument("ear_decomposition_pgas: n too large");

  EarResult r;
  r.ear.assign(el.m(), kBridge);
  if (el.m() == 0) return r;

  // --- distributed phases: spanning forest + Euler metrics. --------------
  MstOptions mopt;
  mopt.coll = opt;
  const auto st = spanning_tree_pgas(rt, el, mopt);
  r.costs += st.costs;
  graph::EdgeList tree;
  tree.n = el.n;
  std::vector<std::uint8_t> is_tree(el.m(), 0);
  for (const auto id : st.edges) {
    tree.edges.push_back(el.edges[id]);
    is_tree[id] = 1;
  }
  const auto tour = build_euler_tour(tree, 0);
  const auto tm = euler_tour_metrics(rt, tour, opt);
  r.costs += tm.costs;

  // --- global preorder positions (per-component intervals, as in BCC). ---
  std::vector<std::uint64_t> comp_of(el.n), comp_offset(el.n, 0);
  {
    Dsu comp(el.n);
    for (const auto& e : tree.edges) comp.unite(e.u, e.v);
    for (std::size_t v = 0; v < el.n; ++v) comp_of[v] = comp.find(v);
    std::vector<std::uint64_t> sizes(el.n, 0);
    for (std::size_t v = 0; v < el.n; ++v) ++sizes[comp_of[v]];
    std::uint64_t off = 0;
    for (std::size_t c = 0; c < el.n; ++c) {
      comp_offset[c] = off;
      off += sizes[c];
    }
  }
  std::vector<std::uint64_t> gp(el.n);
  for (std::size_t v = 0; v < el.n; ++v)
    gp[v] = comp_offset[comp_of[v]] + tm.preorder[v];

  // --- labels: (depth of LCA, serial) per nontree edge.  The serial keeps
  // labels unique; packing the LCA depth in the high bits makes the
  // subtree minimum select a *covering* edge whenever one exists (a
  // covering edge's LCA is strictly shallower than any non-covering
  // candidate's).
  const Lca lca(tm.parent, tm.depth);
  constexpr std::uint64_t kNone = ~0ull;
  std::vector<std::uint64_t> label(el.m(), kNone);
  for (std::size_t e = 0; e < el.m(); ++e) {
    if (is_tree[e]) continue;
    const std::uint64_t a = lca.lca(el.edges[e].u, el.edges[e].v);
    label[e] = (tm.depth[a] << 32) | e;
  }

  // --- per-vertex minimum incident nontree label, then subtree range-min.
  std::vector<std::uint64_t> amin(el.n, kNone);
  for (std::size_t e = 0; e < el.m(); ++e) {
    if (is_tree[e]) continue;
    for (const auto v : {el.edges[e].u, el.edges[e].v})
      amin[gp[v]] = std::min(amin[gp[v]], label[e]);
  }
  const MinTable tmin(amin);

  // --- assignment.  A tree edge e^(v) = (parent(v), v) is covered iff the
  // minimal label in subtree(v) has its LCA strictly above v.
  for (std::size_t t = 0; t < tree.m(); ++t) {
    const auto& e = tree.edges[t];
    const std::uint64_t v = tm.parent[e.v] == e.u ? e.v : e.u;
    const std::uint64_t best =
        tmin.query(gp[v], gp[v] + tm.subtree_size[v] - 1);
    const std::uint64_t global_id = st.edges[t];
    if (best != kNone && (best >> 32) < tm.depth[v])
      r.ear[global_id] = best;
  }
  for (std::size_t e = 0; e < el.m(); ++e)
    if (!is_tree[e]) r.ear[e] = label[e];

  // --- dense, order-preserving ear ids; count bridges. --------------------
  std::vector<std::uint64_t> labels;
  labels.reserve(el.m());
  for (const auto x : r.ear)
    if (x != kBridge) labels.push_back(x);
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  for (auto& x : r.ear) {
    if (x == kBridge) {
      ++r.num_bridges;
      continue;
    }
    x = static_cast<std::uint64_t>(
        std::lower_bound(labels.begin(), labels.end(), x) - labels.begin());
  }
  r.num_ears = labels.size();
  return r;
}

}  // namespace pgraph::core
