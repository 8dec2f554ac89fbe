// Deterministic fault injection and the recovery machinery it exercises:
// retry/backoff in the exchange phase, checksum-validate-retransmit in the
// collectives, and checkpoint/restart in cc_coalesced / mst_pgas (the
// shared superstep recovery driver).  The
// FaultChaos tests are the acceptance gate of docs/ROBUSTNESS.md: under a
// seeded fault plan the algorithms must produce bit-identical results to a
// fault-free run, at a (bounded) higher modeled cost.
//
// PGRAPH_CHAOS_SEED selects the fault seed (default 1); the chaos stage of
// scripts/run_checks.sh sweeps seeds 1..3.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "collectives/getd.hpp"
#include "collectives/setd.hpp"
#include "core/cc_coalesced.hpp"
#include "core/cc_seq.hpp"
#include "core/mst_pgas.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "machine/cost_params.hpp"
#include "partition/partitioning.hpp"
#include "pgas/global_array.hpp"
#include "pgas/replica.hpp"
#include "pgas/runtime.hpp"

namespace g = pgraph::graph;
namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
namespace core = pgraph::core;
namespace coll = pgraph::coll;
namespace flt = pgraph::fault;
namespace part = pgraph::partition;

namespace {

std::uint64_t chaos_seed() {
  const char* s = std::getenv("PGRAPH_CHAOS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 1;
}

pg::Runtime make_rt() {
  return pg::Runtime(pg::Topology::cluster(4, 2),
                     m::CostParams::hps_cluster());
}

/// One exchange superstep: every thread sends one message to the next node.
void cross_node_round(pg::ThreadCtx& ctx, std::size_t bytes) {
  const int tpn = ctx.topo().threads_per_node;
  const int dst_node = (ctx.node() + 1) % ctx.nnodes();
  ctx.post_exchange_msg(dst_node * tpn, bytes);
  ctx.exchange_barrier();
}

}  // namespace

// --- config / primitives -------------------------------------------------

TEST(FaultConfig, ParseLandsValues) {
  const auto c = flt::FaultConfig::parse(
      "drop=0.25,dup=0.125,delay=0.5,delay_ns=777,corrupt=0.1,"
      "straggle=0.2,straggle_ns=999,outage_every=40,outage_k=3,"
      "retries=4,timeout_ns=1000,backoff_ns=500,cap_ns=8000",
      9);
  EXPECT_EQ(c.seed, 9u);
  EXPECT_DOUBLE_EQ(c.drop_p, 0.25);
  EXPECT_DOUBLE_EQ(c.dup_p, 0.125);
  EXPECT_DOUBLE_EQ(c.delay_p, 0.5);
  EXPECT_DOUBLE_EQ(c.delay_ns, 777.0);
  EXPECT_DOUBLE_EQ(c.corrupt_p, 0.1);
  EXPECT_DOUBLE_EQ(c.straggle_p, 0.2);
  EXPECT_DOUBLE_EQ(c.straggle_ns, 999.0);
  EXPECT_EQ(c.outage_every, 40u);
  EXPECT_EQ(c.outage_k, 3);
  EXPECT_EQ(c.max_retries, 4);
  EXPECT_DOUBLE_EQ(c.ack_timeout_ns, 1000.0);
  EXPECT_DOUBLE_EQ(c.retry_backoff_ns, 500.0);
  EXPECT_DOUBLE_EQ(c.backoff_cap_ns, 8000.0);
  EXPECT_TRUE(c.any_faults());
}

TEST(FaultConfig, RejectsUnknownAndMalformed) {
  EXPECT_THROW(flt::FaultConfig::parse("nope=1", 1), std::invalid_argument);
  EXPECT_THROW(flt::FaultConfig::parse("drop=zzz", 1),
               std::invalid_argument);
  EXPECT_THROW(flt::FaultConfig::parse("drop=1.5", 1),
               std::invalid_argument);
}

TEST(FaultConfig, EmptySpecIsAllZero) {
  const auto c = flt::FaultConfig::parse("", 3);
  EXPECT_FALSE(c.any_faults());
  EXPECT_FALSE(c.network_faults());
  EXPECT_FALSE(c.corruption_enabled());
}

TEST(FaultConfig, BackoffIsExponentialAndCapped) {
  auto c = flt::FaultConfig::parse("drop=0.1", 1);
  c.retry_backoff_ns = 100.0;
  c.backoff_cap_ns = 350.0;
  EXPECT_DOUBLE_EQ(c.backoff_ns_for(0), 100.0);
  EXPECT_DOUBLE_EQ(c.backoff_ns_for(1), 200.0);
  EXPECT_DOUBLE_EQ(c.backoff_ns_for(2), 350.0);  // capped
  EXPECT_DOUBLE_EQ(c.backoff_ns_for(10), 350.0);
}

TEST(FaultInjector, DrawsAreDeterministic) {
  const auto cfg = flt::FaultConfig::parse("drop=0.3,dup=0.2,delay=0.2", 5);
  const std::vector<std::int32_t> nodes = {0, 1};
  const auto run_once = [&] {
    flt::FaultInjector inj(cfg);
    m::ExchangePlan plan(2);
    for (int k = 0; k < 32; ++k) plan[0].push_back({1, 100.0});
    inj.apply_exchange(plan, nodes, 2, /*epoch=*/7, /*attempt=*/0);
    return plan;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a[0].size(), b[0].size());  // identical duplicates
  for (std::size_t k = 0; k < a[0].size(); ++k) {
    EXPECT_EQ(a[0][k].dropped, b[0][k].dropped) << k;
    EXPECT_DOUBLE_EQ(a[0][k].extra_delay_ns, b[0][k].extra_delay_ns) << k;
  }
}

TEST(FaultInjector, ChecksumDetectsFlipAndRepairRestores) {
  std::vector<std::uint64_t> buf(64);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = i * 0x9e37ull;
  const std::vector<std::uint64_t> orig = buf;
  const std::uint64_t sum = flt::checksum_words(buf.data(), buf.size() * 8);

  flt::FaultInjector inj(flt::FaultConfig::parse("corrupt=1.0", 11));
  ASSERT_EQ(inj.corrupt(buf.data(), buf.size() * 8, /*epoch=*/3,
                        /*thread=*/0, /*tag=*/0),
            1);
  EXPECT_NE(flt::checksum_words(buf.data(), buf.size() * 8), sum);
  EXPECT_NE(buf, orig);
  EXPECT_EQ(inj.repair(buf.data(), buf.size() * 8), 1);
  EXPECT_EQ(buf, orig);
  EXPECT_EQ(flt::checksum_words(buf.data(), buf.size() * 8), sum);
  EXPECT_EQ(inj.counters().corruptions, 1u);
  EXPECT_EQ(inj.counters().repairs, 1u);
}

TEST(FaultInjector, ChecksumCoversTrailingPartialWord) {
  unsigned char buf[13];
  std::memset(buf, 0x5a, sizeof buf);
  const std::uint64_t sum = flt::checksum_words(buf, sizeof buf);
  buf[12] ^= 1;  // inside the zero-padded tail word
  EXPECT_NE(flt::checksum_words(buf, sizeof buf), sum);
}

TEST(FaultInjector, OutageScheduleArithmetic) {
  flt::FaultInjector inj(flt::FaultConfig::parse("outage_every=10", 2));
  ASSERT_EQ(inj.config().outage_k, 2);
  // Window j=0 is warm-up: no outages before epoch outage_every.
  for (std::uint64_t e = 0; e < 10; ++e) {
    EXPECT_FALSE(inj.outage_active(e)) << e;
    EXPECT_EQ(inj.down_node(4, e), -1) << e;
  }
  // Window j=1 covers epochs [10, 12): one deterministic down node.
  EXPECT_TRUE(inj.outage_active(10));
  EXPECT_TRUE(inj.outage_active(11));
  EXPECT_FALSE(inj.outage_active(12));
  const int down = inj.down_node(4, 10);
  ASSERT_GE(down, 0);
  EXPECT_LT(down, 4);
  EXPECT_EQ(inj.down_node(4, 11), down);
  EXPECT_FALSE(inj.outage_ends_at(10));
  EXPECT_TRUE(inj.outage_ends_at(11));
  EXPECT_FALSE(inj.outage_ends_at(12));
}

// --- runtime integration -------------------------------------------------

TEST(FaultRuntime, RetryChargesModeledTime) {
  const std::size_t kBytes = 4096;
  const int kRounds = 20;
  double clean_ns = 0.0;
  {
    pg::Runtime rt = make_rt();
    rt.run([&](pg::ThreadCtx& ctx) {
      for (int r = 0; r < kRounds; ++r) cross_node_round(ctx, kBytes);
    });
    clean_ns = rt.modeled_time_ns();
  }
  flt::FaultInjector inj(flt::FaultConfig::parse("drop=0.4", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  rt.run([&](pg::ThreadCtx& ctx) {
    for (int r = 0; r < kRounds; ++r) cross_node_round(ctx, kBytes);
  });
  // 160 message draws at p=0.4: losses are certain for any seed that
  // draws at least one drop, and each loss costs timeout + backoff.
  EXPECT_GT(inj.counters().drops, 0u);
  EXPECT_GT(inj.counters().retransmits, 0u);
  EXPECT_GT(inj.counters().retry_wait_ns, 0u);
  EXPECT_GT(rt.modeled_time_ns(), clean_ns);
}

TEST(FaultRuntime, ExhaustionThrowsFaultErrorCollectively) {
  flt::FaultInjector inj(flt::FaultConfig::parse("drop=1.0,retries=3", 1));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  bool threw = false;
  try {
    rt.run([&](pg::ThreadCtx& ctx) { cross_node_round(ctx, 1024); });
  } catch (const flt::FaultError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), flt::FaultKind::RetryExhausted);
  }
  EXPECT_TRUE(threw);
  // The runtime must remain usable: detach faults and run clean.
  rt.set_fault_injector(nullptr);
  rt.run([&](pg::ThreadCtx& ctx) { cross_node_round(ctx, 1024); });
  EXPECT_GT(rt.modeled_time_ns(), 0.0);
}

TEST(FaultRuntime, StragglerPerturbsClocks) {
  const auto work = [](pg::ThreadCtx& ctx) {
    for (int r = 0; r < 10; ++r) {
      ctx.compute(1000, m::Cat::Work);
      ctx.barrier();
    }
  };
  double clean_ns = 0.0;
  {
    pg::Runtime rt = make_rt();
    rt.run(work);
    clean_ns = rt.modeled_time_ns();
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("straggle=1.0,straggle_ns=50000", 1));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  rt.run(work);
  EXPECT_GT(inj.counters().straggles, 0u);
  // Every barrier straggles every thread by >= straggle_ns/2.
  EXPECT_GT(rt.modeled_time_ns(), clean_ns + 10 * 25000.0);
}

TEST(FaultRuntime, ZeroFaultInjectorIsFree) {
  const auto work = [](pg::ThreadCtx& ctx) {
    for (int r = 0; r < 6; ++r) {
      ctx.compute(500, m::Cat::Work);
      cross_node_round(ctx, 2048);
    }
  };
  double clean_ns = 0.0;
  {
    pg::Runtime rt = make_rt();
    rt.run(work);
    clean_ns = rt.modeled_time_ns();
  }
  flt::FaultInjector inj(flt::FaultConfig::parse("", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  rt.run(work);
  EXPECT_DOUBLE_EQ(rt.modeled_time_ns(), clean_ns);
}

// --- chaos: end-to-end algorithms under faults ---------------------------

TEST(FaultChaos, CcBitIdenticalUnderNetworkFaults) {
  const auto el = g::random_graph(256, 1024, 7);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(flt::FaultConfig::parse(
      "drop=0.05,dup=0.03,delay=0.1,straggle=0.05", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto chaotic = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(chaotic.labels, clean.labels);
  EXPECT_EQ(chaotic.num_components, clean.num_components);
  EXPECT_GT(inj.counters().retransmits, 0u);
  // Bounded recovery: every drop is retransmitted at most max_retries
  // times, and in practice far fewer.
  EXPECT_LE(inj.counters().retransmits,
            inj.counters().drops *
                static_cast<std::uint64_t>(inj.config().max_retries));
  EXPECT_GE(chaotic.costs.modeled_ns, clean.costs.modeled_ns);
}

TEST(FaultChaos, CcCorruptionDetectedRepairedBitIdentical) {
  const auto el = g::random_graph(256, 1024, 8);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("corrupt=0.5", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto chaotic = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(chaotic.labels, clean.labels);
  const auto c = inj.counters();
  EXPECT_GT(c.corruptions, 0u);
  EXPECT_GT(c.detected, 0u);
  EXPECT_EQ(c.repairs, c.corruptions);  // every flip repaired before use
  EXPECT_GT(chaotic.costs.modeled_ns, clean.costs.modeled_ns);
}

TEST(FaultChaos, CcOutageRollsBackAndMatches) {
  const auto el = g::random_graph(256, 1024, 9);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("outage_every=40,outage_k=2", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto chaotic = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(chaotic.labels, clean.labels);
  const auto c = inj.counters();
  EXPECT_GT(c.checkpoints, 0u);
  EXPECT_GT(c.outage_events, 0u);
  EXPECT_GT(c.rollbacks, 0u);
  EXPECT_GE(chaotic.iterations, clean.iterations);
}

TEST(FaultChaos, MstWeightAndEdgesIdenticalUnderFaults) {
  const auto el =
      g::with_random_weights(g::random_graph(256, 1024, 10), 11);
  core::ParMstResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::mst_pgas(rt, el, {});
  }
  flt::FaultInjector inj(flt::FaultConfig::parse(
      "drop=0.05,delay=0.1,corrupt=0.25,straggle=0.05", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  auto chaotic = core::mst_pgas(rt, el, {});
  EXPECT_EQ(chaotic.total_weight, clean.total_weight);
  auto ce = chaotic.edges;
  auto ke = clean.edges;
  std::sort(ce.begin(), ce.end());
  std::sort(ke.begin(), ke.end());
  EXPECT_EQ(ce, ke);
  EXPECT_GT(inj.counters().retransmits + inj.counters().repairs, 0u);
}

TEST(FaultChaos, MstOutageRollsBackAndMatches) {
  const auto el =
      g::with_random_weights(g::random_graph(256, 1024, 12), 13);
  core::ParMstResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::mst_pgas(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("outage_every=40,outage_k=2", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  auto chaotic = core::mst_pgas(rt, el, {});
  EXPECT_EQ(chaotic.total_weight, clean.total_weight);
  auto ce = chaotic.edges;
  auto ke = clean.edges;
  std::sort(ce.begin(), ce.end());
  std::sort(ke.begin(), ke.end());
  EXPECT_EQ(ce, ke);
  EXPECT_GT(inj.counters().checkpoints, 0u);
  EXPECT_GT(inj.counters().rollbacks, 0u);
}

// --- permanent node loss: config, shrink, and degraded-mode recovery -----

TEST(FaultConfig, ParseLossKeys) {
  const auto c = flt::FaultConfig::parse("loss_at=24,loss_node=2", 3);
  EXPECT_EQ(c.loss_at, 24u);
  EXPECT_EQ(c.loss_node, 2);
  EXPECT_TRUE(c.loss_enabled());
  EXPECT_TRUE(c.network_faults());
  EXPECT_TRUE(c.any_faults());
  // A pinned victim without a loss epoch is a meaningless plan.
  EXPECT_THROW(flt::FaultConfig::parse("loss_node=2", 3),
               std::invalid_argument);
  // loss_at=0 keeps the whole subsystem disabled.
  EXPECT_FALSE(flt::FaultConfig::parse("loss_at=0", 3).loss_enabled());
}

TEST(FaultConfig, ValidateTopologyRejectsImpossiblePlans) {
  const auto loss = flt::FaultConfig::parse("loss_at=8", 1);
  EXPECT_THROW(loss.validate_topology(1), std::invalid_argument);
  EXPECT_NO_THROW(loss.validate_topology(2));
  const auto outage = flt::FaultConfig::parse("outage_every=10", 1);
  EXPECT_THROW(outage.validate_topology(1), std::invalid_argument);
  EXPECT_NO_THROW(outage.validate_topology(2));
  const auto pinned = flt::FaultConfig::parse("loss_at=8,loss_node=7", 1);
  EXPECT_THROW(pinned.validate_topology(4), std::invalid_argument);
  EXPECT_NO_THROW(pinned.validate_topology(8));
  // Plans without node-grained faults run anywhere, including 1 node.
  EXPECT_NO_THROW(flt::FaultConfig::parse("corrupt=0.5", 1)
                      .validate_topology(1));
}

TEST(FaultRuntime, AttachRejectsPlanTheTopologyCannotHonour) {
  pg::Runtime rt(pg::Topology::cluster(1, 4), m::CostParams::hps_cluster());
  flt::FaultInjector loss(flt::FaultConfig::parse("loss_at=8", 1));
  EXPECT_THROW(rt.set_fault_injector(&loss), std::invalid_argument);
  flt::FaultInjector outage(flt::FaultConfig::parse("outage_every=10", 1));
  EXPECT_THROW(rt.set_fault_injector(&outage), std::invalid_argument);
  // The rejected attach must leave the runtime clean and usable.
  rt.run([](pg::ThreadCtx& ctx) { ctx.barrier(); });
  EXPECT_GT(rt.modeled_time_ns(), 0.0);
}

TEST(FaultRuntime, AttachResetsCountersPerRuntime) {
  flt::FaultInjector inj(flt::FaultConfig::parse("drop=0.4", chaos_seed()));
  pg::Runtime rt1 = make_rt();
  rt1.set_fault_injector(&inj);
  rt1.run([&](pg::ThreadCtx& ctx) {
    for (int r = 0; r < 20; ++r) cross_node_round(ctx, 4096);
  });
  EXPECT_GT(inj.counters().drops, 0u);
  // Attaching the same injector to a fresh runtime starts counters from
  // zero, so per-row bench deltas cannot double-count the previous run.
  pg::Runtime rt2 = make_rt();
  rt2.set_fault_injector(&inj);
  EXPECT_EQ(inj.counters().drops, 0u);
  EXPECT_EQ(inj.counters().retransmits, 0u);
  EXPECT_EQ(inj.counters().retry_wait_ns, 0u);
}

TEST(FaultRuntime, ReplicaMirrorRoundTrip) {
  pg::Runtime rt(pg::Topology::cluster(2, 2), m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> arr(rt, 64);
  std::vector<int> bad(4, 0);
  rt.run([&](pg::ThreadCtx& ctx) {
    const int me = ctx.id();
    auto blk = arr.local_span(me);
    for (std::size_t i = 0; i < blk.size(); ++i)
      blk[i] = 1000 + i + static_cast<std::size_t>(me) * 100;
    arr.replica_snapshot_thread(me);
    for (auto& v : blk) v = 0;  // "lose" the partition
    arr.replica_restore_thread(me);
    for (std::size_t i = 0; i < blk.size(); ++i)
      if (blk[i] != 1000 + i + static_cast<std::size_t>(me) * 100)
        bad[static_cast<std::size_t>(me)] = 1;
    ctx.barrier();
  });
  EXPECT_EQ(bad, std::vector<int>(4, 0));
}

TEST(FaultRuntime, LossShrinksOntoBuddyAndStaysUsable) {
  flt::FaultInjector inj(
      flt::FaultConfig::parse("loss_at=4,loss_node=2", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  pg::GlobalArray<std::uint64_t> arr(rt, 256);
  bool threw = false;
  try {
    rt.run([&](pg::ThreadCtx& ctx) {
      const int me = ctx.id();
      auto blk = arr.local_span(me);
      for (std::size_t i = 0; i < blk.size(); ++i) blk[i] = i;
      ctx.barrier();
      pg::replicate_to_buddy(ctx);
      for (int r = 0; r < 10; ++r) cross_node_round(ctx, 1024);
    });
  } catch (const flt::FaultError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), flt::FaultKind::PermanentLoss);
  }
  ASSERT_TRUE(threw);
  // Node 2 is gone; its predecessor (node 1) adopted threads 4 and 5.
  EXPECT_EQ(rt.topo().live_node_count(), 3);
  EXPECT_FALSE(rt.topo().node_alive(2));
  EXPECT_EQ(rt.topo().node_of(4), 1);
  EXPECT_EQ(rt.topo().node_of(5), 1);
  const auto c = inj.counters();
  EXPECT_EQ(c.loss_events, 1u);
  EXPECT_GT(c.loss_drops, 0u);
  EXPECT_GE(c.replications, 1u);
  EXPECT_GT(c.replica_bytes, 0u);
  // Promotion restored the two dead-hosted 32-element blocks (256 B each).
  EXPECT_EQ(c.promoted_bytes, 512u);
  // The shrunk runtime keeps working (messages reroute to the buddy).
  rt.run([&](pg::ThreadCtx& ctx) {
    for (int r = 0; r < 4; ++r) cross_node_round(ctx, 1024);
  });
  EXPECT_GT(rt.modeled_time_ns(), 0.0);
  EXPECT_EQ(inj.counters().loss_events, 1u);  // no second shrink
}

TEST(FaultChaos, CcLossBitIdenticalAfterShrink) {
  const auto el = g::random_graph(256, 1024, 15);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("loss_at=24", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto chaotic = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(chaotic.labels, clean.labels);
  EXPECT_EQ(chaotic.num_components, clean.num_components);
  const auto c = inj.counters();
  EXPECT_EQ(c.loss_events, 1u);
  EXPECT_GT(c.loss_drops, 0u);
  EXPECT_GE(c.replications, 1u);
  EXPECT_GT(c.replica_bytes, 0u);
  EXPECT_GT(c.promoted_bytes, 0u);
  EXPECT_GE(c.rollbacks, 1u);
  EXPECT_EQ(rt.topo().live_node_count(), 3);
  // Degraded mode is not free: timeouts, the replication traffic and the
  // re-run supersteps all land on the modeled clock.
  EXPECT_GT(chaotic.costs.modeled_ns, clean.costs.modeled_ns);
}

TEST(FaultChaos, MstLossBitIdenticalAfterShrink) {
  const auto el =
      g::with_random_weights(g::random_graph(256, 1024, 16), 17);
  core::ParMstResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::mst_pgas(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("loss_at=24", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  auto chaotic = core::mst_pgas(rt, el, {});
  EXPECT_EQ(chaotic.total_weight, clean.total_weight);
  auto ce = chaotic.edges;
  auto ke = clean.edges;
  std::sort(ce.begin(), ce.end());
  std::sort(ke.begin(), ke.end());
  EXPECT_EQ(ce, ke);
  const auto c = inj.counters();
  EXPECT_EQ(c.loss_events, 1u);
  EXPECT_GE(c.rollbacks, 1u);
  EXPECT_GE(c.replications, 1u);
  EXPECT_EQ(rt.topo().live_node_count(), 3);
}

TEST(FaultChaos, ZeroLossPlanLeavesCcModeledTimeUnchanged) {
  const auto el = g::random_graph(200, 800, 18);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("loss_at=0", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto attached = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(attached.labels, clean.labels);
  EXPECT_DOUBLE_EQ(attached.costs.modeled_ns, clean.costs.modeled_ns);
  EXPECT_EQ(inj.counters().loss_drops, 0u);
  EXPECT_EQ(inj.counters().replications, 0u);
  EXPECT_EQ(inj.counters().checkpoints, 0u);
}

// --- loss-epoch sweep ----------------------------------------------------
//
// A permanent loss at every epoch from the first superstep to past
// convergence, per kernel x topology x partitioning: the recovered answer
// must equal the fault-free one bit for bit.  The single-epoch tests above
// sample one point of this space; the shrink can land anywhere (mid-getd,
// mid-jump, on a replication barrier), and each landing point takes its own
// path through promotion, rollback and the collectives' skip cache.

namespace {

struct LossSweepCase {
  bool mst;
  int threads_per_node;
  bool degree;
};

// Printed values name the ctest cases (no raw padding bytes).
std::ostream& operator<<(std::ostream& os, const LossSweepCase& c) {
  return os << (c.mst ? "mst" : "cc") << "_4x" << c.threads_per_node
            << (c.degree ? "_degree" : "_block");
}

class LossEpochSweep : public testing::TestWithParam<LossSweepCase> {};

}  // namespace

TEST_P(LossEpochSweep, BitIdenticalAtEveryEpoch) {
  const LossSweepCase& c = GetParam();
  const auto el = g::random_graph(256, 1024, 15);
  const auto wel = g::with_random_weights(g::random_graph(256, 1024, 16), 17);
  part::PartitionSpec spec;  // block
  if (c.degree) {
    ASSERT_EQ(part::PartitionSpec::parse("degree", spec), "");
    spec = spec.with_degrees(
        g::degree_histogram(c.mst ? wel.unweighted() : el));
  }

  core::ParCCResult clean_cc;
  core::ParMstResult clean_mst;
  {
    pg::Runtime rt(pg::Topology::cluster(4, c.threads_per_node),
                   m::CostParams::hps_cluster());
    rt.set_partition_spec(spec);
    if (c.mst) {
      clean_mst = core::mst_pgas(rt, wel, {});
      std::sort(clean_mst.edges.begin(), clean_mst.edges.end());
    } else {
      clean_cc = core::cc_coalesced(rt, el, {});
    }
  }

  std::uint64_t shrinks = 0;
  for (int at = 2; at <= 80; ++at) {
    SCOPED_TRACE("loss_at=" + std::to_string(at) + " fault seed " +
                 std::to_string(chaos_seed()));
    flt::FaultInjector inj(flt::FaultConfig::parse(
        "loss_at=" + std::to_string(at), chaos_seed()));
    pg::Runtime rt(pg::Topology::cluster(4, c.threads_per_node),
                   m::CostParams::hps_cluster());
    rt.set_partition_spec(spec);
    rt.set_fault_injector(&inj);
    if (c.mst) {
      auto got = core::mst_pgas(rt, wel, {});
      std::sort(got.edges.begin(), got.edges.end());
      EXPECT_EQ(got.total_weight, clean_mst.total_weight);
      EXPECT_EQ(got.edges, clean_mst.edges);
    } else {
      EXPECT_EQ(core::cc_coalesced(rt, el, {}).labels, clean_cc.labels);
    }
    EXPECT_LE(inj.counters().loss_events, 1u);
    shrinks += inj.counters().loss_events;
  }
  // The sweep must actually exercise the shrink path, not just run past it.
  EXPECT_GT(shrinks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    FaultChaos, LossEpochSweep,
    testing::Values(LossSweepCase{false, 2, false},
                    LossSweepCase{false, 2, true},
                    LossSweepCase{false, 4, false},
                    LossSweepCase{false, 4, true},
                    LossSweepCase{true, 2, false},
                    LossSweepCase{true, 2, true},
                    LossSweepCase{true, 4, false},
                    LossSweepCase{true, 4, true}));

// --- collective exhaustion leaves the runtime reusable -------------------
//
// One thread on one node with corrupt=1.0 and retries=0: the first
// checksum mismatch exhausts immediately (the per-thread throw cannot
// deadlock a 1-thread barrier), and the runtime must afterwards produce a
// clean run bit-identical to one that was never faulted.

namespace {

pg::Runtime make_rt1() {
  return pg::Runtime(pg::Topology::cluster(1, 1),
                     m::CostParams::hps_cluster());
}

}  // namespace

TEST(FaultRecovery, GetdExhaustionLeavesRuntimeReusable) {
  const std::size_t n = 64;
  std::vector<std::uint64_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = (i * 7) % n;
  const coll::CollectiveOptions copt{};
  const auto fill_and_getd = [&](pg::Runtime& rt,
                                 pg::GlobalArray<std::uint64_t>& D,
                                 coll::CollectiveContext& ccx,
                                 std::vector<std::uint64_t>& out) {
    rt.run([&](pg::ThreadCtx& ctx) {
      auto blk = D.local_span(0);
      for (std::size_t i = 0; i < n; ++i) blk[i] = i * 3 + 1;
      ctx.barrier();
      coll::CollWorkspace<std::uint64_t> ws;
      coll::getd(ctx, D, idx, std::span<std::uint64_t>(out), copt, ccx, ws);
    });
  };

  std::vector<std::uint64_t> ref_out(n);
  double ref_ns = 0.0;
  {
    pg::Runtime rt = make_rt1();
    pg::GlobalArray<std::uint64_t> D(rt, n);
    coll::CollectiveContext ccx(rt);
    fill_and_getd(rt, D, ccx, ref_out);
    ref_ns = rt.modeled_time_ns();
  }

  pg::Runtime rt = make_rt1();
  flt::FaultInjector inj(flt::FaultConfig::parse("corrupt=1.0,retries=0", 1));
  rt.set_fault_injector(&inj);
  pg::GlobalArray<std::uint64_t> D(rt, n);
  coll::CollectiveContext ccx(rt);
  std::vector<std::uint64_t> out(n);
  bool threw = false;
  try {
    fill_and_getd(rt, D, ccx, out);
  } catch (const flt::FaultError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), flt::FaultKind::Corruption);
  }
  ASSERT_TRUE(threw);
  rt.set_fault_injector(nullptr);
  rt.reset_costs();
  fill_and_getd(rt, D, ccx, out);
  EXPECT_EQ(out, ref_out);
  EXPECT_DOUBLE_EQ(rt.modeled_time_ns(), ref_ns);
}

TEST(FaultRecovery, SetdExhaustionLeavesRuntimeReusable) {
  const std::size_t n = 64;
  std::vector<std::uint64_t> gi(n);
  std::vector<std::uint64_t> gv(n);
  for (std::size_t i = 0; i < n; ++i) {
    gi[i] = (i * 5) % n;
    gv[i] = i + 7;
  }
  const coll::CollectiveOptions copt{};
  const auto fill_and_setd = [&](pg::Runtime& rt,
                                 pg::GlobalArray<std::uint64_t>& D,
                                 coll::CollectiveContext& ccx) {
    rt.run([&](pg::ThreadCtx& ctx) {
      auto blk = D.local_span(0);
      for (std::size_t i = 0; i < n; ++i) blk[i] = i;
      ctx.barrier();
      coll::CollWorkspace<std::uint64_t> ws;
      coll::setd(ctx, D, gi, std::span<const std::uint64_t>(gv), copt, ccx,
                 ws);
    });
  };

  std::vector<std::uint64_t> ref_labels;
  double ref_ns = 0.0;
  {
    pg::Runtime rt = make_rt1();
    pg::GlobalArray<std::uint64_t> D(rt, n);
    coll::CollectiveContext ccx(rt);
    fill_and_setd(rt, D, ccx);
    ref_labels.assign(D.raw_all().begin(), D.raw_all().end());
    ref_ns = rt.modeled_time_ns();
  }

  pg::Runtime rt = make_rt1();
  flt::FaultInjector inj(flt::FaultConfig::parse("corrupt=1.0,retries=0", 1));
  rt.set_fault_injector(&inj);
  pg::GlobalArray<std::uint64_t> D(rt, n);
  coll::CollectiveContext ccx(rt);
  bool threw = false;
  try {
    fill_and_setd(rt, D, ccx);
  } catch (const flt::FaultError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), flt::FaultKind::Corruption);
  }
  ASSERT_TRUE(threw);
  rt.set_fault_injector(nullptr);
  rt.reset_costs();
  fill_and_setd(rt, D, ccx);
  EXPECT_TRUE(std::equal(ref_labels.begin(), ref_labels.end(),
                         D.raw_all().begin()));
  EXPECT_DOUBLE_EQ(rt.modeled_time_ns(), ref_ns);
}

TEST(FaultRecovery, SetdMinExhaustionLeavesRuntimeReusable) {
  const std::size_t n = 64;
  std::vector<std::uint64_t> gi(n);
  std::vector<std::uint64_t> gv(n);
  for (std::size_t i = 0; i < n; ++i) {
    gi[i] = (i * 3) % n;
    gv[i] = (i * 11) % 50;
  }
  const coll::CollectiveOptions copt{};
  const auto fill_and_setd_min = [&](pg::Runtime& rt,
                                     pg::GlobalArray<std::uint64_t>& D,
                                     coll::CollectiveContext& ccx) {
    rt.run([&](pg::ThreadCtx& ctx) {
      auto blk = D.local_span(0);
      for (std::size_t i = 0; i < n; ++i) blk[i] = 1000;
      ctx.barrier();
      coll::CollWorkspace<std::uint64_t> ws;
      coll::setd_min(ctx, D, gi, std::span<const std::uint64_t>(gv), copt,
                     ccx, ws);
    });
  };

  std::vector<std::uint64_t> ref_labels;
  double ref_ns = 0.0;
  {
    pg::Runtime rt = make_rt1();
    pg::GlobalArray<std::uint64_t> D(rt, n);
    coll::CollectiveContext ccx(rt);
    fill_and_setd_min(rt, D, ccx);
    ref_labels.assign(D.raw_all().begin(), D.raw_all().end());
    ref_ns = rt.modeled_time_ns();
  }

  pg::Runtime rt = make_rt1();
  flt::FaultInjector inj(flt::FaultConfig::parse("corrupt=1.0,retries=0", 1));
  rt.set_fault_injector(&inj);
  pg::GlobalArray<std::uint64_t> D(rt, n);
  coll::CollectiveContext ccx(rt);
  bool threw = false;
  try {
    fill_and_setd_min(rt, D, ccx);
  } catch (const flt::FaultError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), flt::FaultKind::Corruption);
  }
  ASSERT_TRUE(threw);
  rt.set_fault_injector(nullptr);
  rt.reset_costs();
  fill_and_setd_min(rt, D, ccx);
  EXPECT_TRUE(std::equal(ref_labels.begin(), ref_labels.end(),
                         D.raw_all().begin()));
  EXPECT_DOUBLE_EQ(rt.modeled_time_ns(), ref_ns);
}

TEST(FaultChaos, ZeroFaultPlanLeavesCcModeledTimeUnchanged) {
  const auto el = g::random_graph(200, 800, 14);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(flt::FaultConfig::parse("drop=0", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto attached = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(attached.labels, clean.labels);
  EXPECT_DOUBLE_EQ(attached.costs.modeled_ns, clean.costs.modeled_ns);
  EXPECT_EQ(inj.counters().drops, 0u);
  EXPECT_EQ(inj.counters().checkpoints, 0u);
}

// --- serving-phase arming (`arm=0|1`) ------------------------------------

TEST(FaultConfig, ArmKeyParsesAndValidates) {
  EXPECT_TRUE(flt::FaultConfig::parse("drop=0.1,arm=1", 1).start_armed);
  EXPECT_FALSE(flt::FaultConfig::parse("drop=0.1,arm=0", 1).start_armed);
  EXPECT_TRUE(flt::FaultConfig::parse("drop=0.1", 1).start_armed);
  EXPECT_THROW(flt::FaultConfig::parse("arm=2", 1), std::invalid_argument);
}

TEST(FaultChaos, DisarmedPlanIsANoOpUntilArmed) {
  // Disarmed, a hostile plan behaves like an empty one — bit-identical
  // labels and modeled time, zero counters.  Re-arming the same injector
  // mid-process makes the (purely hash-keyed) draws fire.
  const auto el = g::random_graph(200, 800, 23);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("drop=0.3,retries=24,arm=0", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto disarmed = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(disarmed.labels, clean.labels);
  EXPECT_DOUBLE_EQ(disarmed.costs.modeled_ns, clean.costs.modeled_ns);
  EXPECT_EQ(inj.counters().drops, 0u);

  inj.set_armed(true);
  const auto armed = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(armed.labels, clean.labels);  // retransmits keep it correct
  EXPECT_GT(inj.counters().drops, 0u);
  EXPECT_GT(armed.costs.modeled_ns, clean.costs.modeled_ns);

  inj.set_armed(false);
  const std::uint64_t drops = inj.counters().drops;
  const auto rearmed_off = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(rearmed_off.labels, clean.labels);
  EXPECT_EQ(inj.counters().drops, drops);  // disarmed again: no new draws
}
