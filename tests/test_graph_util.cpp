// CSR, I/O, edge chunking.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace g = pgraph::graph;

TEST(Csr, AdjacencyBothDirections) {
  g::EdgeList el;
  el.n = 4;
  el.edges = {{0, 1}, {1, 2}, {1, 3}};
  const g::Csr csr(el);
  EXPECT_EQ(csr.n(), 4u);
  EXPECT_EQ(csr.directed_edges(), 6u);
  EXPECT_EQ(csr.degree(1), 3u);
  EXPECT_EQ(csr.degree(0), 1u);
  const auto n1 = csr.neighbors(1);
  EXPECT_EQ(std::count(n1.begin(), n1.end(), 0u), 1);
  EXPECT_EQ(std::count(n1.begin(), n1.end(), 2u), 1);
  EXPECT_EQ(std::count(n1.begin(), n1.end(), 3u), 1);
}

TEST(Csr, WeightedParallelArrays) {
  g::WEdgeList el;
  el.n = 3;
  el.edges = {{0, 1, 10}, {1, 2, 20}};
  const g::Csr csr(el);
  const auto nb = csr.neighbors(1);
  const auto w = csr.weights(1);
  ASSERT_EQ(nb.size(), 2u);
  ASSERT_EQ(w.size(), 2u);
  for (std::size_t i = 0; i < nb.size(); ++i)
    EXPECT_EQ(w[i], nb[i] == 0 ? 10u : 20u);
}

TEST(Csr, SelfLoopListsBothArcs) {
  // A self loop is two arcs v -> v: both land in v's list, in edge order,
  // and no slot is left unwritten.
  g::WEdgeList el;
  el.n = 3;
  el.edges = {{2, 2, 7}, {1, 2, 5}};
  const g::Csr csr(el);
  const auto nb = csr.neighbors(2);
  const auto w = csr.weights(2);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(std::vector<g::VertexId>(nb.begin(), nb.end()),
            (std::vector<g::VertexId>{2, 2, 1}));
  EXPECT_EQ(std::vector<g::Weight>(w.begin(), w.end()),
            (std::vector<g::Weight>{7, 7, 5}));
}

TEST(Csr, UnweightedHasEmptyWeights) {
  const g::Csr csr(g::path_graph(5));
  EXPECT_TRUE(csr.weights(0).empty());
}

TEST(EdgeChunk, CoversExactlyOnce) {
  const auto el = g::random_graph(100, 333, 1);
  for (const int parts : {1, 2, 3, 7, 16, 333, 500}) {
    std::size_t total = 0;
    std::size_t prev_hi = 0;
    for (int p = 0; p < parts; ++p) {
      const auto [lo, hi] = g::even_chunk(el.m(), parts, p);
      EXPECT_EQ(lo, prev_hi);
      EXPECT_LE(hi - lo, el.m() / static_cast<std::size_t>(parts) + 1);
      total += hi - lo;
      prev_hi = hi;
    }
    EXPECT_EQ(total, el.m()) << parts;
    EXPECT_EQ(prev_hi, el.m());
  }
}

TEST(Io, DimacsRoundTripUnweighted) {
  const auto el = g::random_graph(50, 120, 2);
  std::stringstream ss;
  g::write_dimacs(ss, el);
  const auto back = g::read_dimacs(ss);
  EXPECT_EQ(back.n, el.n);
  EXPECT_EQ(back.edges, el.edges);
}

TEST(Io, DimacsRoundTripWeighted) {
  const auto el = g::with_random_weights(g::random_graph(50, 120, 3), 4);
  std::stringstream ss;
  g::write_dimacs(ss, el);
  const auto back = g::read_dimacs_weighted(ss);
  EXPECT_EQ(back.n, el.n);
  EXPECT_EQ(back.edges, el.edges);
}

TEST(Io, DimacsRejectsMalformed) {
  {
    std::stringstream ss("e 1 2\n");
    EXPECT_THROW(g::read_dimacs(ss), std::runtime_error);
  }
  {
    std::stringstream ss("p edge 3 1\ne 1 9\n");
    EXPECT_THROW(g::read_dimacs(ss), std::runtime_error);  // id out of range
  }
  {
    std::stringstream ss("p edge 3 2\ne 1 2\n");
    EXPECT_THROW(g::read_dimacs(ss), std::runtime_error);  // count mismatch
  }
  {
    std::stringstream ss("p edge 3 1\nx 1 2\n");
    EXPECT_THROW(g::read_dimacs(ss), std::runtime_error);  // unknown kind
  }
}

