// Dynamic-graph subsystem: batched ingestion, incremental CC maintenance
// (bit-identical to a fresh cc_coalesced after every batch), deletion
// fallback, epoch-versioned query snapshots, and survival of the snapshot
// ring across a permanent node loss (the StreamLoss tests run under the
// chaos stage's seed sweep via PGRAPH_CHAOS_SEED).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/cc_coalesced.hpp"
#include "core/cc_seq.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "machine/cost_params.hpp"
#include "partition/partitioning.hpp"
#include "pgas/runtime.hpp"
#include "stream/cc_incremental.hpp"
#include "stream/dynamic_graph.hpp"

namespace g = pgraph::graph;
namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
namespace core = pgraph::core;
namespace flt = pgraph::fault;
namespace strm = pgraph::stream;
namespace part = pgraph::partition;

namespace {

std::uint64_t chaos_seed() {
  const char* s = std::getenv("PGRAPH_CHAOS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 1;
}

pg::Runtime make_rt(int nodes = 4, int threads = 2) {
  return pg::Runtime(pg::Topology::cluster(nodes, threads),
                     m::CostParams::hps_cluster());
}

std::vector<std::uint64_t> labels_of(strm::DynamicGraph& dg) {
  const auto sp = dg.labels().raw_all();
  return {sp.begin(), sp.end()};
}

/// Fresh canonical labeling of `el` in a throwaway runtime.
core::ParCCResult fresh_cc(const g::EdgeList& el) {
  pg::Runtime rt = make_rt();
  return core::cc_coalesced(rt, el, {});
}

/// Drive a whole temporal stream through a DynamicGraph in fixed-size
/// batches, asserting bit-identity against a fresh cc_coalesced run on the
/// materialized edge set after every single batch.
void check_stream_bit_identity(const g::TemporalStream& ts,
                               std::size_t batch, int nodes, int threads,
                               strm::DynamicGraph::Options opt = {}) {
  pg::Runtime rt = make_rt(nodes, threads);
  strm::DynamicGraph dg(rt, ts.base, opt);
  ASSERT_EQ(labels_of(dg), fresh_cc(ts.base).labels);

  std::size_t rebuilt = 0;
  for (std::size_t at = 0; at < ts.updates.size(); at += batch) {
    const std::size_t len = std::min(batch, ts.updates.size() - at);
    const auto st = dg.apply_batch(
        std::span<const g::EdgeUpdate>(ts.updates).subspan(at, len));
    if (st.rebuilt) ++rebuilt;
    const auto fresh = fresh_cc(dg.materialize());
    ASSERT_EQ(labels_of(dg), fresh.labels)
        << "batch at op " << at << " (rebuilt=" << st.rebuilt << ")";
    EXPECT_EQ(dg.num_components(), fresh.num_components);
    EXPECT_EQ(st.epoch, dg.latest_epoch());
    EXPECT_GT(st.total_modeled_ns(), 0.0);
  }
  // Deletions must have engaged the rebuild fallback at least once.
  bool any_erase = false;
  for (const auto& u : ts.updates)
    any_erase |= u.kind == g::UpdateKind::Erase;
  if (any_erase) {
    EXPECT_GT(rebuilt, 0u);
  }
}

}  // namespace

TEST(StreamBitIdentity, InsertOnlyAcrossSeeds) {
  for (std::uint64_t seed : {1, 2, 3}) {
    g::TemporalStreamParams p;
    p.base_edges = 400;
    const auto ts = g::temporal_stream(300, 320, seed, p);
    check_stream_bit_identity(ts, 64, 4, 2);
  }
}

TEST(StreamBitIdentity, MixedInsertEraseAcrossSeeds) {
  for (std::uint64_t seed : {1, 2, 3}) {
    g::TemporalStreamParams p;
    p.base_edges = 500;
    p.delete_frac = 0.35;
    const auto ts = g::temporal_stream(250, 300, seed, p);
    check_stream_bit_identity(ts, 50, 4, 2);
  }
}

TEST(StreamBitIdentity, RmatBaseAndOddTopology) {
  g::TemporalStreamParams p;
  p.base = g::TemporalBase::Rmat;
  p.base_edges = 600;
  p.delete_frac = 0.2;
  const auto ts = g::temporal_stream(256, 200, 7, p);
  check_stream_bit_identity(ts, 40, 3, 2);
}

TEST(StreamBitIdentity, HierarchicalCollectives) {
  // Ingest, maintenance and publish all on node-combined exchanges: each
  // owner's ingest record batches travel as one message per remote node,
  // like GetD/SetD's, and the labels stay bit-identical.
  g::TemporalStreamParams p;
  p.base_edges = 300;
  p.delete_frac = 0.25;
  const auto ts = g::temporal_stream(300, 300, 5, p);
  strm::DynamicGraph::Options opt;
  opt.cc.coll.hierarchical = true;
  check_stream_bit_identity(ts, 50, 4, 2, opt);

  // Per ingest exchange: one count/offset tile per ordered node pair, and
  // each owner's record batches combined into one message per remote node
  // (flat mode posts one per remote thread).
  pg::Runtime rt = make_rt(4, 2);
  strm::DynamicGraph dg(rt, ts.base, opt);
  const auto st = dg.apply_batch(
      std::span<const g::EdgeUpdate>(ts.updates).subspan(0, 120));
  EXPECT_GT(st.ingest.messages, 0u);
  EXPECT_LE(st.ingest.messages, 4u * 3u + 8u * 3u);
}

TEST(StreamBitIdentity, SparseBaseManySingletons) {
  // Mostly-isolated vertices: grafts touch almost every inserted edge.
  g::TemporalStreamParams p;
  p.base_edges = 10;
  const auto ts = g::temporal_stream(400, 150, 11, p);
  check_stream_bit_identity(ts, 25, 2, 2);
}

TEST(StreamIncremental, MatchesFreshCcDirectly) {
  // cc_incremental alone: start from the canonical labels of a base graph,
  // fold in fresh edges, compare against cc_coalesced of the union.
  const auto base = g::random_graph(300, 350, 21);
  pg::Runtime rt = make_rt();
  auto run = core::cc_coalesced(rt, base, {});
  pg::GlobalArray<std::uint64_t> d(rt, base.n);
  for (std::size_t i = 0; i < base.n; ++i) d.raw(i) = run.labels[i];

  std::vector<g::Edge> fresh = {{0, 299}, {5, 7}, {100, 200}, {100, 201}};
  const auto inc = strm::cc_incremental(rt, d, fresh, {});
  EXPECT_GT(inc.iterations, 0);

  g::EdgeList merged = base;
  for (const auto& e : fresh) merged.edges.push_back(e);
  const auto want = fresh_cc(merged);
  const auto got = d.raw_all();
  EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), want.labels);
}

TEST(StreamQueries, AnswersMatchGroundTruth) {
  g::TemporalStreamParams p;
  p.base_edges = 300;
  const auto ts = g::temporal_stream(200, 100, 5, p);
  pg::Runtime rt = make_rt();
  strm::DynamicGraph dg(rt, ts.base);
  dg.apply_batch(ts.updates);

  const auto truth = core::cc_dsu(dg.materialize());
  // Component sizes per root label, host-side.
  std::vector<std::uint64_t> size_of(dg.num_vertices(), 0);
  for (const auto lbl : truth.labels) ++size_of[lbl];

  strm::QueryBatch q;
  for (g::VertexId u = 0; u < 50; ++u)
    q.same_component.push_back({u, (u * 37 + 11) % dg.num_vertices()});
  for (g::VertexId u = 0; u < dg.num_vertices(); u += 3)
    q.component_size.push_back(u);

  const auto r = dg.query(q);
  EXPECT_EQ(r.epoch, dg.latest_epoch());
  ASSERT_EQ(r.same.size(), q.same_component.size());
  ASSERT_EQ(r.size.size(), q.component_size.size());
  for (std::size_t i = 0; i < q.same_component.size(); ++i) {
    const auto [u, v] = q.same_component[i];
    EXPECT_EQ(r.same[i] != 0, truth.labels[u] == truth.labels[v]) << i;
  }
  for (std::size_t i = 0; i < q.component_size.size(); ++i)
    EXPECT_EQ(r.size[i], size_of[truth.labels[q.component_size[i]]]) << i;
  EXPECT_GT(r.costs.modeled_ns, 0.0);

  // A second size query hits the cached aggregation: still correct, and
  // strictly cheaper than the pass that built it.
  const auto r2 = dg.query(q);
  EXPECT_EQ(r2.size, r.size);
  EXPECT_LT(r2.costs.modeled_ns, r.costs.modeled_ns);
}

TEST(StreamQueries, SizeAggregationChargedOncePerEpoch) {
  // The lazy component-size aggregation is a one-time per-epoch cost: the
  // first size batch on an epoch pays it (agg_ns > 0), every later batch
  // on the same epoch pays nothing (agg_ns == 0 and strictly lower total),
  // and a new published epoch starts the cycle over.
  g::TemporalStreamParams p;
  p.base_edges = 250;
  const auto ts = g::temporal_stream(180, 60, 31, p);
  pg::Runtime rt = make_rt();
  strm::DynamicGraph dg(rt, ts.base);

  strm::QueryBatch q;
  for (g::VertexId u = 0; u < dg.num_vertices(); u += 4)
    q.component_size.push_back(u);

  const auto r1 = dg.query(q);
  EXPECT_GT(r1.agg_ns, 0.0);
  EXPECT_LT(r1.agg_ns, r1.costs.modeled_ns);

  const auto r2 = dg.query(q);  // same epoch: aggregation is cached
  EXPECT_EQ(r2.size, r1.size);
  EXPECT_DOUBLE_EQ(r2.agg_ns, 0.0);
  EXPECT_LT(r2.costs.modeled_ns, r1.costs.modeled_ns);
  EXPECT_LT(r2.costs.barriers, r1.costs.barriers);
  // Identical equal-shaped batches on the warmed epoch cost the same.
  const auto r3 = dg.query(q);
  EXPECT_DOUBLE_EQ(r3.agg_ns, 0.0);
  EXPECT_DOUBLE_EQ(r3.costs.modeled_ns, r2.costs.modeled_ns);

  // Connectivity-only batches never trigger the aggregation.
  strm::QueryBatch conn;
  conn.same_component.push_back({0, 1});
  EXPECT_DOUBLE_EQ(dg.query(conn).agg_ns, 0.0);

  // A new epoch re-arms the lazy pass exactly once.  Its slot holds no
  // older sizes yet, so that pass is a full one.
  dg.apply_batch(ts.updates);
  const auto r4 = dg.query(q);
  EXPECT_GT(r4.agg_ns, 0.0);
  EXPECT_EQ(r4.agg_full, 1u);
  EXPECT_EQ(r4.agg_delta, 0u);
  EXPECT_DOUBLE_EQ(dg.query(q).agg_ns, 0.0);

  // Epoch 2 rolls epoch 0's sizes forward through the root maps of epochs
  // 1 and 2: still charged once, and below the full pass.
  dg.apply_batch({});
  const auto r5 = dg.query(q);
  EXPECT_GT(r5.agg_ns, 0.0);
  EXPECT_LT(r5.agg_ns, r1.agg_ns);
  EXPECT_EQ(r5.agg_full, 0u);
  EXPECT_EQ(r5.agg_delta, 1u);
  const auto r6 = dg.query(q);
  EXPECT_EQ(r6.size, r5.size);
  EXPECT_DOUBLE_EQ(r6.agg_ns, 0.0);
  EXPECT_EQ(r6.agg_full + r6.agg_delta, 0u);
}

TEST(StreamQueries, SizesRollForwardMatchUnionFind) {
  // Property: whichever path aggregated an epoch's component sizes (a
  // roll-forward through the grafted-root maps or the full SetDAdd pass),
  // they equal a host union-find's.  An epoch rolls forward exactly when
  // its slot holds the sizes of two epochs back and neither batch since
  // was rebuilt: erase batches break the chain, and querying only every
  // third epoch outruns the map ring.
  struct Topo {
    int nodes, threads;
  };
  std::uint64_t seed = 40;
  for (const Topo tp : {Topo{1, 1}, Topo{2, 1}, Topo{4, 2}})
    for (const char* scheme : {"block", "cyclic", "degree"})
      for (const bool mixed : {false, true})
        for (const std::uint64_t every : {1u, 2u, 3u}) {
          SCOPED_TRACE(std::to_string(tp.nodes) + "x" +
                       std::to_string(tp.threads) + " " + scheme +
                       (mixed ? " mixed" : " insert-only") + " every " +
                       std::to_string(every));
          g::TemporalStreamParams p;
          p.base_edges = 96;  // 0.6 n: small components, batches graft
          const auto ts = g::temporal_stream(160, 160, ++seed, p);
          // Batches of 16 inserts; the mixed stream swaps two of them for
          // the erase of a live base edge.
          std::vector<std::vector<g::EdgeUpdate>> batches;
          for (std::size_t at = 0; at < ts.updates.size(); at += 16)
            batches.emplace_back(ts.updates.begin() + at,
                                 ts.updates.begin() + at + 16);
          if (mixed)
            for (const std::size_t b : {3u, 6u}) {
              const g::Edge victim = ts.base.edges[b];
              batches[b] = {{victim.u, victim.v, batches[b].front().ts,
                             g::UpdateKind::Erase}};
            }

          part::PartitionSpec sp;
          ASSERT_EQ(part::PartitionSpec::parse(scheme, sp), "");
          if (sp.kind == part::PartitionKind::Degree)
            sp = sp.with_degrees(g::degree_histogram(ts.base));
          pg::Runtime rt = make_rt(tp.nodes, tp.threads);
          rt.set_partition_spec(sp);
          strm::DynamicGraph dg(rt, ts.base);

          strm::QueryBatch q;
          for (g::VertexId u = 0; u < dg.num_vertices(); ++u)
            q.component_size.push_back(u);
          std::vector<bool> rebuilt = {true};  // epoch 0 is a full build
          double full_min = 0.0, delta_max = 0.0;
          std::size_t deltas = 0;
          for (std::uint64_t e = 0;; ++e) {
            if (e % every == 0) {
              SCOPED_TRACE("epoch " + std::to_string(e));
              const auto truth = core::cc_dsu(dg.materialize());
              std::vector<std::uint64_t> size_of(dg.num_vertices(), 0);
              for (const auto lbl : truth.labels) ++size_of[lbl];
              const auto r = dg.query(q);
              for (std::size_t i = 0; i < q.component_size.size(); ++i)
                ASSERT_EQ(r.size[i], size_of[truth.labels[i]]) << i;
              const bool roll =
                  every <= 2 && e >= 2 && !rebuilt[e] && !rebuilt[e - 1];
              ASSERT_EQ(r.agg_delta, roll ? 1u : 0u);
              ASSERT_EQ(r.agg_full, roll ? 0u : 1u);
              if (roll) {
                ++deltas;
                delta_max = std::max(delta_max, r.agg_ns);
              } else if (full_min == 0.0 || r.agg_ns < full_min) {
                full_min = r.agg_ns;
              }
            }
            if (e == batches.size()) break;
            rebuilt.push_back(dg.apply_batch(batches[e]).rebuilt);
          }
          EXPECT_EQ(rebuilt[4] && rebuilt[7], mixed);
          if (every <= 2) {
            EXPECT_GT(deltas, 0u);
            EXPECT_GT(delta_max, 0.0);
            EXPECT_LT(delta_max, full_min);
          }
        }
}

TEST(StreamQueries, FaultMidRollForwardRetriesFullPass) {
  // A fault that escapes a roll-forward leaves the size array half-written:
  // with every exchange message dropped and no retransmit budget, the pass
  // dies at its all-gather after the owners zeroed the merged roots' sizes.
  // The caller's retry must not roll again from that array.
  g::TemporalStreamParams p;
  p.base_edges = 180;  // 0.6 n: many small components, so batches graft
  const auto ts = g::temporal_stream(300, 60, 29, p);
  flt::FaultInjector inj(
      flt::FaultConfig::parse("drop=1,retries=0,arm=0", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  strm::DynamicGraph dg(rt, ts.base);
  strm::QueryBatch q;
  for (g::VertexId u = 0; u < dg.num_vertices(); ++u)
    q.component_size.push_back(u);
  dg.query(q);
  dg.apply_batch(std::span<const g::EdgeUpdate>(ts.updates).subspan(0, 30));
  dg.apply_batch(std::span<const g::EdgeUpdate>(ts.updates).subspan(30, 30));

  inj.set_armed(true);
  EXPECT_THROW(dg.query(q), flt::FaultError);
  inj.set_armed(false);
  const auto r = dg.query(q);
  EXPECT_EQ(r.agg_full, 1u);
  EXPECT_EQ(r.agg_delta, 0u);
  const auto truth = core::cc_dsu(dg.materialize());
  std::vector<std::uint64_t> size_of(dg.num_vertices(), 0);
  for (const auto lbl : truth.labels) ++size_of[lbl];
  for (std::size_t i = 0; i < q.component_size.size(); ++i)
    EXPECT_EQ(r.size[i], size_of[truth.labels[i]]) << i;
}

TEST(StreamEpochs, RingServesPreviousEpochAndEvictsOlder) {
  g::TemporalStreamParams p;
  p.base_edges = 200;
  const auto ts = g::temporal_stream(150, 90, 9, p);
  pg::Runtime rt = make_rt();
  strm::DynamicGraph dg(rt, ts.base);

  const auto span = [&](std::size_t at, std::size_t len) {
    return std::span<const g::EdgeUpdate>(ts.updates).subspan(at, len);
  };

  // Ground truth at epoch 1 = base + first 30 updates.
  dg.apply_batch(span(0, 30));
  const auto truth1 = core::cc_dsu(dg.materialize());
  dg.apply_batch(span(30, 30));  // epoch 2; ring = {1, 2}

  strm::QueryBatch q;
  q.epoch = 1;
  for (g::VertexId u = 0; u + 1 < dg.num_vertices(); u += 7)
    q.same_component.push_back({u, u + 1});
  const auto r = dg.query(q);
  EXPECT_EQ(r.epoch, 1u);
  for (std::size_t i = 0; i < q.same_component.size(); ++i) {
    const auto [u, v] = q.same_component[i];
    EXPECT_EQ(r.same[i] != 0, truth1.labels[u] == truth1.labels[v]) << i;
  }

  dg.apply_batch(span(60, 30));  // epoch 3; ring = {2, 3}: epoch 1 evicted
  EXPECT_THROW(dg.query(q), std::out_of_range);
  strm::QueryBatch q0;
  q0.epoch = 0;
  q0.same_component.push_back({0, 1});
  EXPECT_THROW(dg.query(q0), std::out_of_range);
  strm::QueryBatch latest;
  latest.same_component.push_back({0, 1});
  EXPECT_EQ(dg.query(latest).epoch, 3u);
}

TEST(StreamSpeedup, IncrementalBeatsRebuildOnSmallBatches) {
  // Acceptance shape of bench/str01: a batch of <= 1% of the edges must
  // maintain labels >= 5x cheaper (modeled) than recomputing from scratch.
  g::TemporalStreamParams p;
  p.base_edges = 12000;
  const auto ts = g::temporal_stream(3000, 120, 13, p);
  pg::Runtime rt = make_rt();
  strm::DynamicGraph dg(rt, ts.base);
  const double rebuild_ns = dg.initial_build().maintain.modeled_ns;
  ASSERT_GT(rebuild_ns, 0.0);

  const auto st = dg.apply_batch(ts.updates);
  EXPECT_FALSE(st.rebuilt);
  EXPECT_GT(st.maintain.modeled_ns, 0.0);
  EXPECT_GE(rebuild_ns, 5.0 * st.maintain.modeled_ns)
      << "incremental maintain " << st.maintain.modeled_ns
      << " ns vs rebuild " << rebuild_ns << " ns";
}

TEST(StreamSpeedup, GraftingBatchBeatsRebuild) {
  // Sparse-base twin of the test above.  On a base of 0.6 n edges most
  // vertices sit in small components, so the batch merges components and
  // the bound times the resolve-and-relabel superstep, not only the
  // endpoint label read.  Modeled, the one-superstep pass is 34x cheaper
  // than the rebuild here; a graft-then-pointer-jump pass, which reads the
  // parent of every vertex at least twice, is only 8x cheaper.
  g::TemporalStreamParams p;
  p.base_edges = 1800;
  const auto ts = g::temporal_stream(3000, 18, 13, p);
  pg::Runtime rt = make_rt();
  strm::DynamicGraph dg(rt, ts.base);
  const double rebuild_ns = dg.initial_build().maintain.modeled_ns;
  ASSERT_GT(rebuild_ns, 0.0);
  const std::uint64_t before = dg.num_components();

  const auto st = dg.apply_batch(ts.updates);
  EXPECT_FALSE(st.rebuilt);
  EXPECT_EQ(st.iterations, 2);
  EXPECT_LT(dg.num_components(), before) << "the batch merged nothing";
  ASSERT_EQ(labels_of(dg), fresh_cc(dg.materialize()).labels);
  EXPECT_GE(rebuild_ns, 15.0 * st.maintain.modeled_ns)
      << "incremental maintain " << st.maintain.modeled_ns
      << " ns vs rebuild " << rebuild_ns << " ns";
}

TEST(StreamRebuildPolicy, LargeBatchAndErasesTriggerRebuild) {
  g::TemporalStreamParams p;
  p.base_edges = 100;
  const auto ts = g::temporal_stream(200, 400, 3, p);
  pg::Runtime rt = make_rt();
  strm::DynamicGraph dg(rt, ts.base);
  // 400 inserts against 100 live edges blows past rebuild_frac.
  const auto st = dg.apply_batch(ts.updates);
  EXPECT_TRUE(st.rebuilt);

  // A single applied erase dirties a component and forces a rebuild.
  pg::Runtime rt2 = make_rt();
  strm::DynamicGraph dg2(rt2, ts.base);
  const g::Edge victim = ts.base.edges.front();
  const std::vector<g::EdgeUpdate> one = {
      {victim.u, victim.v, 1, g::UpdateKind::Erase}};
  const auto st2 = dg2.apply_batch(one);
  EXPECT_EQ(st2.erased, 1u);
  EXPECT_GE(st2.dirty_components, 1u);
  EXPECT_TRUE(st2.rebuilt);

  // An erase of a nonexistent edge is ignored and stays incremental.
  pg::Runtime rt3 = make_rt();
  strm::DynamicGraph dg3(rt3, ts.base);
  const std::vector<g::EdgeUpdate> none = {{0, 199, 1, g::UpdateKind::Erase}};
  const auto st3 = dg3.apply_batch(none);
  EXPECT_EQ(st3.erased, 0u);
  EXPECT_EQ(st3.ignored, 1u);
  EXPECT_FALSE(st3.rebuilt);
}

TEST(StreamLoss, SnapshotRingSurvivesShrinkBitIdentical) {
  // Satellite of the buddy-replication PR: publish two epochs, lose a node
  // permanently mid-maintenance, and demand (a) the shrunk stream keeps
  // producing labels bit-identical to a fresh run, and (b) a query against
  // the epoch published BEFORE the loss is served bit-identically from the
  // promoted mirrors.
  g::TemporalStreamParams p;
  p.base_edges = 400;
  const auto ts = g::temporal_stream(300, 120, 17, p);
  const auto span = [&](std::size_t at, std::size_t len) {
    return std::span<const g::EdgeUpdate>(ts.updates).subspan(at, len);
  };

  // Probe the (deterministic) runtime-epoch trajectory with a loss plan
  // that is armed — so publish-time buddy replication is live — but never
  // fires; then aim the real loss at the middle of the second batch.
  std::uint64_t e1 = 0, e2 = 0;
  {
    flt::FaultInjector probe(flt::FaultConfig::parse(
        "loss_at=1000000000,loss_node=2", chaos_seed()));
    pg::Runtime rt = make_rt();
    rt.set_fault_injector(&probe);
    strm::DynamicGraph dg(rt, ts.base);
    dg.apply_batch(span(0, 60));
    e1 = rt.epoch();
    dg.apply_batch(span(60, 60));
    e2 = rt.epoch();
  }
  ASSERT_GT(e2, e1 + 2);

  flt::FaultInjector inj(flt::FaultConfig::parse(
      "loss_at=" + std::to_string(e1 + (e2 - e1) / 2) + ",loss_node=2",
      chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  strm::DynamicGraph dg(rt, ts.base);
  dg.apply_batch(span(0, 60));  // epoch 1, fault-free
  const auto truth1 = core::cc_dsu(dg.materialize());

  dg.apply_batch(span(60, 60));  // epoch 2, across the shrink
  EXPECT_EQ(inj.counters().loss_events, 1u);
  EXPECT_GE(inj.counters().replications, 1u);
  EXPECT_GT(inj.counters().promoted_bytes, 0u);
  EXPECT_EQ(rt.topo().live_node_count(), 3);
  EXPECT_FALSE(rt.topo().node_alive(2));

  // (a) live labels on the shrunk topology == fresh clean-run labels.
  ASSERT_EQ(labels_of(dg), fresh_cc(dg.materialize()).labels);

  // (b) the pre-loss epoch is still served, bit-identical to its truth.
  strm::QueryBatch q;
  q.epoch = 1;
  for (g::VertexId u = 0; u + 1 < dg.num_vertices(); u += 5)
    q.same_component.push_back({u, u + 1});
  for (g::VertexId u = 0; u < dg.num_vertices(); u += 9)
    q.component_size.push_back(u);
  const auto r = dg.query(q);
  EXPECT_EQ(r.epoch, 1u);
  std::vector<std::uint64_t> size1(dg.num_vertices(), 0);
  for (const auto lbl : truth1.labels) ++size1[lbl];
  for (std::size_t i = 0; i < q.same_component.size(); ++i) {
    const auto [u, v] = q.same_component[i];
    EXPECT_EQ(r.same[i] != 0, truth1.labels[u] == truth1.labels[v]) << i;
  }
  for (std::size_t i = 0; i < q.component_size.size(); ++i)
    EXPECT_EQ(r.size[i], size1[truth1.labels[q.component_size[i]]]) << i;

  // The stream keeps working after the shrink.
  const auto st = dg.apply_batch(span(120, 0));
  EXPECT_EQ(st.epoch, dg.latest_epoch());
  ASSERT_EQ(labels_of(dg), fresh_cc(dg.materialize()).labels);
}

TEST(StreamLoss, GraftingBatchBitIdenticalAtEveryBarrier) {
  // Sweep a permanent node loss over every barrier of one grafting
  // insert-only batch: ingest, the endpoint GetDs, the pair all-gather,
  // the relabel barrier and the publish.  Whichever of them the loss
  // strikes, the labels after recovery and the answers served for the new
  // epoch must be bit-identical to a fresh cc_coalesced, and the epoch
  // published before the loss must still be served from the mirrors.
  g::TemporalStreamParams p;
  p.base_edges = 180;  // 0.6 n: many small components, so the batch grafts
  const auto ts = g::temporal_stream(300, 60, 29, p);
  const auto span = [&](std::size_t at, std::size_t len) {
    return std::span<const g::EdgeUpdate>(ts.updates).subspan(at, len);
  };

  // Probe the runtime-epoch window of the second batch with an armed loss
  // plan that never fires.
  std::uint64_t e1 = 0, e2 = 0;
  {
    flt::FaultInjector probe(flt::FaultConfig::parse(
        "loss_at=1000000000,loss_node=2", chaos_seed()));
    pg::Runtime rt = make_rt();
    rt.set_fault_injector(&probe);
    strm::DynamicGraph dg(rt, ts.base);
    dg.apply_batch(span(0, 30));
    e1 = rt.epoch();
    const auto st = dg.apply_batch(span(30, 30));
    e2 = rt.epoch();
    ASSERT_FALSE(st.rebuilt);
    ASSERT_EQ(st.iterations, 2) << "the swept batch must graft";
  }
  ASSERT_GT(e2, e1 + 2);

  for (std::uint64_t at = e1 + 1; at <= e2; ++at) {
    SCOPED_TRACE("loss_at=" + std::to_string(at));
    flt::FaultInjector inj(flt::FaultConfig::parse(
        "loss_at=" + std::to_string(at) + ",loss_node=2", chaos_seed()));
    pg::Runtime rt = make_rt();
    rt.set_fault_injector(&inj);
    strm::DynamicGraph dg(rt, ts.base);
    const auto served_as = [&](std::uint64_t epoch,
                               const std::vector<std::uint64_t>& want) {
      strm::QueryBatch q;
      q.epoch = epoch;
      for (g::VertexId u = 0; u + 7 < dg.num_vertices(); u += 3)
        q.same_component.push_back({u, u + 7});
      for (g::VertexId u = 0; u < dg.num_vertices(); u += 4)
        q.component_size.push_back(u);
      const auto r = dg.query(q);
      ASSERT_EQ(r.epoch, epoch);
      std::vector<std::uint64_t> size(dg.num_vertices(), 0);
      for (const auto lbl : want) ++size[lbl];
      for (std::size_t i = 0; i < q.same_component.size(); ++i) {
        const auto [u, v] = q.same_component[i];
        EXPECT_EQ(r.same[i] != 0, want[u] == want[v]) << epoch << " " << i;
      }
      for (std::size_t i = 0; i < q.component_size.size(); ++i)
        EXPECT_EQ(r.size[i], size[want[q.component_size[i]]])
            << epoch << " " << i;
    };

    dg.apply_batch(span(0, 30));  // epoch 1, fault-free
    const auto truth1 = fresh_cc(dg.materialize()).labels;
    dg.apply_batch(span(30, 30));  // epoch 2, the loss strikes inside
    const auto truth2 = fresh_cc(dg.materialize()).labels;
    ASSERT_EQ(labels_of(dg), truth2);
    served_as(1, truth1);
    served_as(2, truth2);

    // A loss on one of the last barriers surfaces at the next exchange.
    dg.apply_batch(span(60, 0));  // epoch 3, no updates
    EXPECT_EQ(inj.counters().loss_events, 1u);
    EXPECT_EQ(rt.topo().live_node_count(), 3);
    ASSERT_EQ(labels_of(dg), truth2);
    served_as(2, truth2);
    served_as(3, truth2);
  }
}

TEST(StreamLoss, SizeRollForwardBitIdenticalAtEveryBarrier) {
  // Sweep a permanent node loss over every barrier of one size query whose
  // aggregation rolls epoch 0's sizes forward to epoch 2.  Every answer
  // must be bit-identical to the fault-free run.  A loss that surfaces
  // inside the roll-forward leaves the size array half-written, so the
  // retry must take the full pass.  Losses from the roll's mirror shipment
  // on surface only after the pass completed, and keep its sizes.
  g::TemporalStreamParams p;
  p.base_edges = 180;  // 0.6 n: many small components, so batches graft
  const auto ts = g::temporal_stream(300, 60, 29, p);
  const auto span = [&](std::size_t at, std::size_t len) {
    return std::span<const g::EdgeUpdate>(ts.updates).subspan(at, len);
  };
  strm::QueryBatch q;
  for (g::VertexId u = 0; u + 7 < 300; u += 3)
    q.same_component.push_back({u, u + 7});
  for (g::VertexId u = 0; u < 300; u += 2) q.component_size.push_back(u);
  strm::QueryBatch sizes0 = q;
  sizes0.epoch = 0;

  // Fault-free reference, on an armed loss plan that never fires: the
  // runtime-epoch windows of the rolled query and of the lookups alone (a
  // repeat of the query on the held sizes).
  std::uint64_t e0 = 0, e1 = 0, e2 = 0;
  strm::QueryResult want;
  {
    flt::FaultInjector probe(flt::FaultConfig::parse(
        "loss_at=1000000000,loss_node=2", chaos_seed()));
    pg::Runtime rt = make_rt();
    rt.set_fault_injector(&probe);
    strm::DynamicGraph dg(rt, ts.base);
    dg.query(sizes0);
    dg.apply_batch(span(0, 30));
    dg.apply_batch(span(30, 30));
    e0 = rt.epoch();
    want = dg.query(q);
    e1 = rt.epoch();
    ASSERT_EQ(want.agg_delta, 1u) << "the swept query must roll forward";
    ASSERT_EQ(dg.query(q).size, want.size);
    e2 = rt.epoch();
  }
  const std::uint64_t lookups = e2 - e1;
  ASSERT_GT(e1 - e0, lookups) << "the roll-forward must have barriers";

  std::size_t fulls = 0;
  bool rolled = false;
  for (std::uint64_t at = e0 + 1; at <= e1; ++at) {
    SCOPED_TRACE("loss_at=" + std::to_string(at));
    flt::FaultInjector inj(flt::FaultConfig::parse(
        "loss_at=" + std::to_string(at) + ",loss_node=2", chaos_seed()));
    pg::Runtime rt = make_rt();
    rt.set_fault_injector(&inj);
    strm::DynamicGraph dg(rt, ts.base);
    dg.query(sizes0);
    dg.apply_batch(span(0, 30));
    dg.apply_batch(span(30, 30));
    const auto r = dg.query(q);
    EXPECT_EQ(r.same, want.same);
    EXPECT_EQ(r.size, want.size);
    // The full retries are a prefix of the roll-forward's barriers.
    EXPECT_EQ(r.agg_full + r.agg_delta, 1u);
    if (r.agg_full == 1) {
      EXPECT_FALSE(rolled);
      EXPECT_LE(at, e1 - lookups);
      ++fulls;
    } else {
      rolled = true;
    }

    // A loss on one of the last barriers surfaces at the next exchange.
    dg.apply_batch(span(60, 0));
    EXPECT_EQ(inj.counters().loss_events, 1u);
    EXPECT_EQ(rt.topo().live_node_count(), 3);
    strm::QueryBatch prev = q;
    prev.epoch = 2;
    const auto r2 = dg.query(prev);
    EXPECT_EQ(r2.same, want.same);
    EXPECT_EQ(r2.size, want.size);
  }
  EXPECT_GT(fulls, 0u);
}

TEST(StreamIngest, CountersAndDeterminism) {
  g::TemporalStreamParams p;
  p.base_edges = 150;
  p.delete_frac = 0.3;
  const auto ts = g::temporal_stream(120, 200, 23, p);

  const auto run_once = [&](int nodes, int threads) {
    pg::Runtime rt = make_rt(nodes, threads);
    strm::DynamicGraph dg(rt, ts.base);
    std::vector<strm::BatchStats> stats;
    for (std::size_t at = 0; at < ts.updates.size(); at += 40)
      stats.push_back(dg.apply_batch(
          std::span<const g::EdgeUpdate>(ts.updates)
              .subspan(at, std::min<std::size_t>(40, ts.updates.size() - at))));
    return std::pair{labels_of(dg), stats};
  };

  const auto [l1, s1] = run_once(4, 2);
  const auto [l2, s2] = run_once(2, 3);  // different topology, same answer
  EXPECT_EQ(l1, l2);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    // The functional outcome of a batch is topology-independent.
    EXPECT_EQ(s1[i].inserted, s2[i].inserted) << i;
    EXPECT_EQ(s1[i].erased, s2[i].erased) << i;
    EXPECT_EQ(s1[i].ignored, s2[i].ignored) << i;
    EXPECT_EQ(s1[i].ops, s1[i].inserted + s1[i].erased + s1[i].ignored) << i;
  }
}
