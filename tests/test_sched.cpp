// Algorithm 1 (recursive access scheduling), counting sort, virtual-thread
// decomposition — plus the cache-simulator proof that scheduling reduces
// misses (the core claim of Section IV).
#include <gtest/gtest.h>

#include <numeric>
#include <ostream>

#include "graph/rng.hpp"
#include "machine/cache_sim.hpp"
#include "sched/access_sched.hpp"
#include "sched/count_sort.hpp"
#include "sched/virtual_threads.hpp"

namespace s = pgraph::sched;
namespace m = pgraph::machine;
using pgraph::graph::Xoshiro256;

namespace {
/// Sort `in` by value through the two-pass count sort, keeping the rank.
void sort_ranked(const std::vector<std::uint64_t>& in, std::size_t nbuckets,
                 std::vector<std::uint64_t>& sorted,
                 std::vector<std::uint32_t>& rank,
                 std::vector<std::size_t>& off) {
  const auto key = [&](std::size_t i) {
    return static_cast<std::size_t>(in[i]);
  };
  sorted.resize(s::count_sort_offsets(in.size(), nbuckets, key, off));
  rank.resize(sorted.size());
  std::vector<std::size_t> cursor;
  s::count_sort_scatter(
      in.size(), key,
      [&](std::size_t i, std::size_t pos) {
        sorted[pos] = in[i];
        rank[pos] = static_cast<std::uint32_t>(i);
      },
      off, cursor);
}
}  // namespace

TEST(CountSort, StableAndRanked) {
  const std::vector<std::uint64_t> in = {5, 1, 4, 1, 3, 5, 0};
  std::vector<std::uint64_t> sorted;
  std::vector<std::uint32_t> rank;
  std::vector<std::size_t> off;
  sort_ranked(in, 6, sorted, rank, off);
  EXPECT_EQ(sorted, (std::vector<std::uint64_t>{0, 1, 1, 3, 4, 5, 5}));
  // Stability: the two 1s keep input order (positions 1 then 3), the two
  // 5s keep order (0 then 5).
  EXPECT_EQ(rank[1], 1u);
  EXPECT_EQ(rank[2], 3u);
  EXPECT_EQ(rank[5], 0u);
  EXPECT_EQ(rank[6], 5u);
  // Bucket offsets partition the output.
  EXPECT_EQ(off, (std::vector<std::size_t>{0, 1, 3, 3, 4, 5, 7}));
  // Permute phase reconstructs the original order.
  std::vector<std::uint64_t> rebuilt(in.size());
  for (std::size_t j = 0; j < in.size(); ++j) rebuilt[rank[j]] = sorted[j];
  EXPECT_EQ(rebuilt, in);
}

TEST(CountSort, EmptyInput) {
  std::vector<std::uint64_t> in, sorted;
  std::vector<std::uint32_t> rank;
  std::vector<std::size_t> off;
  sort_ranked(in, 4, sorted, rank, off);
  EXPECT_EQ(off, (std::vector<std::size_t>{0, 0, 0, 0, 0}));
  EXPECT_TRUE(sorted.empty());
}

TEST(CountSort, DroppedKeysAreLeftOut) {
  // kDropped items take no bucket and no position; the rest stay stable.
  const std::vector<std::uint64_t> in = {2, 9, 0, 2, 9, 1};
  const auto key = [&](std::size_t i) {
    return in[i] == 9 ? s::kDropped : static_cast<std::size_t>(in[i]);
  };
  std::vector<std::size_t> off, cursor;
  ASSERT_EQ(s::count_sort_offsets(in.size(), 3, key, off), 4u);
  EXPECT_EQ(off, (std::vector<std::size_t>{0, 1, 2, 4}));
  std::vector<std::size_t> from(4);
  s::count_sort_scatter(
      in.size(), key, [&](std::size_t i, std::size_t pos) { from[pos] = i; },
      off, cursor);
  EXPECT_EQ(from, (std::vector<std::size_t>{2, 5, 0, 3}));
}

namespace {
std::vector<std::uint64_t> make_d(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> d(n);
  Xoshiro256 rng(seed);
  for (auto& x : d) x = rng.next();
  return d;
}
std::vector<std::uint64_t> make_r(std::size_t m, std::size_t n,
                                  std::uint64_t seed) {
  std::vector<std::uint64_t> r(m);
  Xoshiro256 rng(seed);
  for (auto& x : r) x = rng.next_below(n);
  return r;
}
}  // namespace

struct GatherCase {
  std::size_t n, mreq;
  std::vector<std::size_t> ws;
};

// Names the case by its fields (e.g. n1000_mreq5000_ws8x8), so the test IDs
// are stable; gtest would otherwise print the raw object bytes, heap
// pointers included.
void PrintTo(const GatherCase& c, std::ostream* os) {
  *os << "n" << c.n << "_mreq" << c.mreq << "_ws";
  if (c.ws.empty()) *os << "none";
  for (std::size_t i = 0; i < c.ws.size(); ++i)
    *os << (i > 0 ? "x" : "") << c.ws[i];
}

class ScheduledGatherP : public ::testing::TestWithParam<GatherCase> {};

TEST_P(ScheduledGatherP, MatchesDirectGather) {
  const auto& c = GetParam();
  const auto d = make_d(c.n, 1);
  const auto r = make_r(c.mreq, c.n, 2);
  std::vector<std::uint64_t> expect(c.mreq), got(c.mreq, 0);
  s::direct_gather(d, r, expect);
  s::scheduled_gather(d, r, got, c.ws);
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduledGatherP,
    ::testing::Values(
        GatherCase{1, 10, {4}},                 // single-element D
        GatherCase{100, 0, {4}},                // no requests
        GatherCase{100, 1000, {}},              // no scheduling (degenerate)
        GatherCase{1000, 5000, {1}},            // W=1 degenerates
        GatherCase{1000, 5000, {8}},            // one level
        GatherCase{1000, 5000, {8, 8}},         // two levels
        GatherCase{1000, 5000, {4, 4, 4}},      // three levels (paper max)
        GatherCase{1000, 5000, {1000}},         // W = n (full sort)
        GatherCase{777, 3333, {13}},            // non-dividing W
        GatherCase{65536, 100000, {16, 16}}));  // larger instance

TEST(ScheduledScatter, MatchesDirectScatterLastWriterWins) {
  const std::size_t n = 512, mreq = 4096;
  const auto r = make_r(mreq, n, 3);
  const auto v = make_d(mreq, 4);
  std::vector<std::uint64_t> d1(n, 0), d2(n, 0);
  // Direct last-writer-wins.
  for (std::size_t i = 0; i < mreq; ++i) d1[r[i]] = v[i];
  const std::vector<std::size_t> ws = {8, 4};
  s::scheduled_scatter(d2, r, v, ws);
  EXPECT_EQ(d1, d2);
}

TEST(ScheduledGather, ChargesLessAccessTimeThanDirectOnLargeD) {
  // Analytic model: blocking reduces the access-phase working set.
  m::CostParams p = m::CostParams::hps_cluster();
  p.cache_bytes = 1 << 14;  // small cache to make the effect visible
  m::MemoryModel mm(p);
  const std::size_t n = 1 << 16, mreq = 1 << 18;
  const auto d = make_d(n, 5);
  const auto r = make_r(mreq, n, 6);
  std::vector<std::uint64_t> out(mreq);
  s::SchedCost direct, sched;
  s::direct_gather(d, r, out, &mm, &direct);
  const std::vector<std::size_t> ws = {64};
  s::scheduled_gather(d, r, out, ws, &mm, &sched);
  EXPECT_LT(sched.access_ns, 0.5 * direct.access_ns);
}

TEST(ScheduledGather, TraceThroughCacheSimShowsFewerMisses) {
  // The real (not analytic) validation: replay both access traces through
  // the cache simulator.  Scheduling must cut misses in the access phase.
  const std::size_t n = 1 << 16;    // 512 KiB of D (uint64)
  const std::size_t mreq = 1 << 18;
  const auto d = make_d(n, 7);
  const auto r = make_r(mreq, n, 8);
  std::vector<std::uint64_t> out(mreq);

  s::AccessTrace direct_trace, sched_trace;
  s::direct_gather(d, r, out, nullptr, nullptr, &direct_trace);
  const std::vector<std::size_t> ws = {64, 8};
  s::scheduled_gather(d, r, out, ws, nullptr, nullptr, &sched_trace);
  ASSERT_EQ(direct_trace.size(), sched_trace.size());

  const auto misses = [](const s::AccessTrace& t) {
    m::CacheSim sim(1 << 15, 64, 8);  // 32 KiB
    for (const std::uint64_t idx : t) sim.access(idx * 8);
    return sim.misses();
  };
  const auto md = misses(direct_trace);
  const auto ms = misses(sched_trace);
  EXPECT_LT(ms, md / 4) << "scheduled misses " << ms << " vs direct " << md;
}

TEST(VBlocks, KeysAndOwners) {
  const s::VBlocks vb(100, 4, 3);  // blk = 25, sub = 9
  EXPECT_EQ(vb.blk, 25u);
  EXPECT_EQ(vb.sub_blk, 9u);
  EXPECT_EQ(vb.nbuckets(), 12u);
  EXPECT_EQ(vb.owner(0), 0);
  EXPECT_EQ(vb.owner(24), 0);
  EXPECT_EQ(vb.owner(25), 1);
  EXPECT_EQ(vb.owner(99), 3);
  EXPECT_EQ(vb.vkey(0), 0u);
  EXPECT_EQ(vb.vkey(9), 1u);
  EXPECT_EQ(vb.vkey(18), 2u);
  EXPECT_EQ(vb.vkey(24), 2u);  // clamped to last sub-block
  EXPECT_EQ(vb.vkey(25), 3u);  // thread 1, sub 0
  EXPECT_EQ(vb.first_bucket(2), 6u);
}

TEST(VBlocks, KeysAreMonotoneInIndex) {
  const s::VBlocks vb(1000, 7, 5);
  std::size_t prev = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::size_t k = vb.vkey(i);
    EXPECT_GE(k, prev);
    EXPECT_LT(k, vb.nbuckets());
    prev = k;
  }
}

TEST(VBlocks, TprimeOneMatchesOwner) {
  const s::VBlocks vb(997, 8, 1);
  for (std::uint64_t i = 0; i < 997; ++i)
    EXPECT_EQ(vb.vkey(i), static_cast<std::size_t>(vb.owner(i)));
}
