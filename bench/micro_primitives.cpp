// Google-benchmark microbenchmarks of the building blocks: counting sort,
// Algorithm 1 gathers, the cache simulator, and the sequential baselines.
// These measure the *host* performance of the simulator substrate itself
// (real wall time, not modeled time).
#include <benchmark/benchmark.h>

#include "core/cc_seq.hpp"
#include "core/dsu.hpp"
#include "core/mst_seq.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "machine/cache_sim.hpp"
#include "sched/access_sched.hpp"
#include "sched/count_sort.hpp"

using namespace pgraph;

static void BM_CountSort(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t buckets = 256;
  graph::Xoshiro256 rng(1);
  std::vector<std::uint64_t> in(m), sorted(m);
  std::vector<std::uint32_t> rank(m);
  std::vector<std::size_t> off;
  for (auto& x : in) x = rng.next_below(buckets);
  std::vector<std::size_t> cursor;
  const auto key = [&](std::size_t i) {
    return static_cast<std::size_t>(in[i]);
  };
  for (auto _ : state) {
    sched::count_sort_offsets(m, buckets, key, off);
    sched::count_sort_scatter(
        m, key,
        [&](std::size_t i, std::size_t pos) {
          sorted[pos] = in[i];
          rank[pos] = static_cast<std::uint32_t>(i);
        },
        off, cursor);
    benchmark::DoNotOptimize(sorted.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(m) * state.iterations());
}
BENCHMARK(BM_CountSort)->Arg(1 << 14)->Arg(1 << 18);

static void BM_DirectGather(benchmark::State& state) {
  const std::size_t n = 1 << 18, m = 1 << 18;
  graph::Xoshiro256 rng(2);
  std::vector<std::uint64_t> d(n), r(m), out(m);
  for (auto& x : d) x = rng.next();
  for (auto& x : r) x = rng.next_below(n);
  for (auto _ : state) {
    sched::direct_gather(d, r, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(m) * state.iterations());
}
BENCHMARK(BM_DirectGather);

static void BM_ScheduledGather(benchmark::State& state) {
  const std::size_t n = 1 << 18, m = 1 << 18;
  graph::Xoshiro256 rng(2);
  std::vector<std::uint64_t> d(n), r(m), out(m);
  for (auto& x : d) x = rng.next();
  for (auto& x : r) x = rng.next_below(n);
  const std::vector<std::size_t> ws = {
      static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    sched::scheduled_gather(d, r, out, ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(m) * state.iterations());
}
BENCHMARK(BM_ScheduledGather)->Arg(16)->Arg(64)->Arg(256);

static void BM_CacheSimAccess(benchmark::State& state) {
  machine::CacheSim sim(1 << 16, 64, 8);
  graph::Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.access(rng.next_below(1 << 20)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheSimAccess);

static void BM_CcDsu(benchmark::State& state) {
  const auto el = graph::random_graph(1 << 16, 1 << 18, 4);
  for (auto _ : state) {
    auto r = core::cc_dsu(el);
    benchmark::DoNotOptimize(r.num_components);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(el.m()) *
                          state.iterations());
}
BENCHMARK(BM_CcDsu);

static void BM_MstKruskal(benchmark::State& state) {
  const auto el =
      graph::with_random_weights(graph::random_graph(1 << 14, 1 << 16, 5), 6);
  for (auto _ : state) {
    auto r = core::mst_kruskal(el);
    benchmark::DoNotOptimize(r.total_weight);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(el.m()) *
                          state.iterations());
}
BENCHMARK(BM_MstKruskal);

static void BM_HybridGenerator(benchmark::State& state) {
  for (auto _ : state) {
    auto el = graph::hybrid_graph(1 << 14, 1 << 16, 7);
    benchmark::DoNotOptimize(el.edges.data());
  }
}
BENCHMARK(BM_HybridGenerator);

BENCHMARK_MAIN();
