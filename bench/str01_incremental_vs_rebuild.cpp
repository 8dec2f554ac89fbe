// STR-01: incremental CC maintenance vs full rebuild over a temporal edge
// stream.  The dynamic-graph subsystem ingests timestamped update batches
// through the SetD count-sort scheduling, maintains canonical labels with
// cc_incremental (bit-identical to a fresh cc_coalesced — self-checked
// here, exit 1 on mismatch), and publishes epoch snapshots for queries.
//
// Default mode sweeps the batch size as a fraction of the live edge count,
// once over a dense base graph (m edges; fresh edges rarely join two
// components) and once over a sparse one (0.6 n edges; every batch merges
// components, self-checked): batches <= 1% of the edges must maintain
// labels >= 5x cheaper (modeled) than recomputing from scratch, and past
// the rebuild_frac crossover the full-rebuild fallback must engage.  With
// --stream [--batch-size N --query-mix F] it instead drives one mixed
// insert/delete stream at a fixed batch size, interleaving
// connectivity/size query batches.
//
// Per-batch rows carry the full phase attribution (ingest / maintain /
// publish modeled ns) in the schema-v1 JSON report.
#include "bench_common.hpp"
#include "graph/rng.hpp"
#include "stream/dynamic_graph.hpp"

using namespace pgraph;
using namespace pgraph::bench;

namespace {

/// Fresh canonical labeling in a throwaway runtime: the bit-identity
/// reference and the rebuild-cost yardstick.
core::ParCCResult reference_cc(const pgas::Topology& topo,
                               const graph::EdgeList& el, Report& rep,
                               const BenchArgs& a) {
  pgas::Runtime rt(topo, params_for(el.n));
  apply_partition(rt, a, &el);
  rep.attach(rt);
  return core::cc_coalesced(rt, el, {});
}

bool labels_match(stream::DynamicGraph& dg,
                  const std::vector<std::uint64_t>& want) {
  std::vector<std::uint64_t> got;
  dg.labels().read_all(got);  // global order under any --partition layout
  return std::equal(got.begin(), got.end(), want.begin(), want.end());
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv, {.stream = true, .partition = true});
  const int nodes = a.nodes > 0 ? a.nodes : 4;
  const int threads = a.threads > 0 ? a.threads : 2;
  const std::uint64_t n = a.n ? a.n : a.scaled(6000);
  const std::uint64_t m = a.m ? a.m : 4 * n;
  preamble(a, "STR-01",
           "incremental CC maintenance vs full rebuild over a temporal "
           "edge stream",
           "batches <= 1% of edges maintain >= 5x cheaper than a rebuild; "
           "past the crossover the rebuild fallback engages");

  const pgas::Topology topo = pgas::Topology::cluster(nodes, threads);
  Report rep(a, "str01_incremental_vs_rebuild");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("m", static_cast<double>(m));
  rep.set_param("nodes", nodes);
  rep.set_param("threads", threads);
  rep.set_param("seed", static_cast<double>(a.seed));

  Table t(a.stream
              ? std::vector<std::string>{"config", "ops", "mode", "iters",
                                         "ingest", "maintain", "publish",
                                         "queries", "query cost"}
              : std::vector<std::string>{"config", "ops", "mode", "iters",
                                         "ingest", "maintain", "publish",
                                         "rebuild ref", "speedup"});
  int rc = 0;
  const auto check_identity = [&](stream::DynamicGraph& dg,
                                  const std::vector<std::uint64_t>& want,
                                  const std::string& where) {
    if (labels_match(dg, want)) return;
    std::fprintf(stderr,
                 "str01: SELF-CHECK FAILED at %s: labels diverged from a "
                 "fresh cc_coalesced run\n",
                 where.c_str());
    rc = 1;
  };

  if (!a.stream) {
    // --- batch-fraction sweep (the figure) -------------------------------
    // `prefix` labels the rows, `base_edges` sizes the base graph, and the
    // batch fractions are relative to it.  `must_graft` demands that the
    // incremental batches really merged components, so the sweep times the
    // resolve-and-relabel superstep and not only the endpoint label read.
    const auto sweep = [&](const std::string& prefix, std::size_t base_edges,
                           std::span<const double> fracs, bool must_graft) {
      for (const double f : fracs) {
        const std::size_t batch = std::max<std::size_t>(
            1, static_cast<std::size_t>(f * static_cast<double>(base_edges)));
        const std::size_t kBatches = 3;
        graph::TemporalStreamParams p;
        p.base_edges = base_edges;  // insert-only below the crossover
        const auto ts =
            graph::temporal_stream(n, kBatches * batch, a.seed, p);

        pgas::Runtime rt(topo, params_for(n));
        apply_partition(rt, a, &ts.base);
        rep.attach(rt);
        stream::DynamicGraph dg(rt, ts.base);

        std::vector<stream::BatchStats> stats;
        for (std::size_t b = 0; b < kBatches; ++b)
          stats.push_back(dg.apply_batch(
              std::span<const graph::EdgeUpdate>(ts.updates)
                  .subspan(b * batch, batch)));

        // Rebuild yardstick + bit-identity reference on the final edge set.
        const std::string cfg = prefix + "f=" + Table::num(100 * f, 1) + "%";
        const auto ref = reference_cc(topo, dg.materialize(), rep, a);
        check_identity(dg, ref.labels, cfg + " final batch");

        bool any_rebuilt = false;
        for (std::size_t b = 0; b < stats.size(); ++b) {
          const auto& st = stats[b];
          const double speedup =
              st.maintain.modeled_ns > 0
                  ? ref.costs.modeled_ns / st.maintain.modeled_ns
                  : 0.0;
          rep.row(cfg + " batch " + std::to_string(b + 1), st.maintain,
                  {{"ingest_ns", st.ingest.modeled_ns},
                   {"maintain_ns", st.maintain.modeled_ns},
                   {"publish_ns", st.publish.modeled_ns},
                   {"total_ns", st.total_modeled_ns()},
                   {"ops", static_cast<double>(st.ops)},
                   {"fresh_edges", static_cast<double>(st.fresh_edges)},
                   {"rebuilt", st.rebuilt ? 1.0 : 0.0},
                   {"iterations", static_cast<double>(st.iterations)},
                   {"rebuild_ref_ns", ref.costs.modeled_ns},
                   {"speedup_vs_rebuild", speedup}});
          t.add_row({cfg, std::to_string(st.ops),
                     st.rebuilt ? "rebuild" : "incremental",
                     std::to_string(st.iterations),
                     Table::eng(st.ingest.modeled_ns),
                     Table::eng(st.maintain.modeled_ns),
                     Table::eng(st.publish.modeled_ns),
                     Table::eng(ref.costs.modeled_ns),
                     ratio(ref.costs.modeled_ns, st.maintain.modeled_ns)});
          // Acceptance: tiny batches stay incremental and >= 5x cheaper
          // than the rebuild; past rebuild_frac the fallback engages.
          if (f <= 0.01) {
            if (st.rebuilt) {
              std::fprintf(stderr,
                           "str01: batch of %.2f%% unexpectedly rebuilt\n",
                           100 * f);
              rc = 1;
            } else if (speedup < 5.0) {
              std::fprintf(
                  stderr,
                  "str01: batch of %.2f%% only %.2fx cheaper than rebuild\n",
                  100 * f, speedup);
              rc = 1;
            }
          }
          // iterations == 2: the batch merged components and paid the
          // resolve-and-relabel superstep after the endpoint label read.
          if (must_graft && !st.rebuilt && st.iterations != 2) {
            std::fprintf(stderr,
                         "str01: %s batch %zu merged no components\n",
                         cfg.c_str(), b + 1);
            rc = 1;
          }
          any_rebuilt = any_rebuilt || st.rebuilt;
        }
        // Past the crossover the fallback must engage at least once; later
        // same-size batches may drop back under rebuild_frac as the live
        // edge set grows, which is the policy working as intended.
        if (f >= 0.40 && !any_rebuilt) {
          std::fprintf(stderr,
                       "str01: no batch of %.0f%% triggered the rebuild "
                       "fallback\n",
                       100 * f);
          rc = 1;
        }
      }
    };
    // Dense base (m edges): almost every fresh edge lands inside the giant
    // component, so the batches graft nothing.
    const double dense_fracs[] = {0.001, 0.005, 0.01, 0.05, 0.40};
    sweep("", m, dense_fracs, false);
    // Sparse base (0.6 n edges): many small components, so every batch
    // below the crossover merges some of them.
    const double sparse_fracs[] = {0.001, 0.005, 0.01, 0.05, 0.20};
    sweep("sparse ", 3 * n / 5, sparse_fracs, true);
  } else {
    // --- fixed-batch streaming loop (--stream) ---------------------------
    const std::size_t batch =
        a.batch_size > 0 ? a.batch_size
                         : std::max<std::size_t>(1, m / 100);
    const std::size_t kBatches = 8;
    graph::TemporalStreamParams p;
    p.base_edges = m;
    p.delete_frac = 0.15;  // exercise the dirty-component fallback
    const auto ts = graph::temporal_stream(n, kBatches * batch, a.seed, p);

    pgas::Runtime rt(topo, params_for(n));
    apply_partition(rt, a, &ts.base);
    rep.attach(rt);
    stream::DynamicGraph dg(rt, ts.base);
    graph::Xoshiro256 qrng(a.seed ^ 0x9e3779b97f4a7c15ULL);

    for (std::size_t b = 0; b < kBatches; ++b) {
      const std::size_t at = b * batch;
      const std::size_t len = std::min(batch, ts.updates.size() - at);
      const auto st = dg.apply_batch(
          std::span<const graph::EdgeUpdate>(ts.updates).subspan(at, len));

      core::RunCosts qcosts;
      const std::size_t nq = static_cast<std::size_t>(
          a.query_mix * static_cast<double>(len));
      if (nq > 0) {
        stream::QueryBatch q;
        for (std::size_t i = 0; i < nq; ++i) {
          if (i % 2 == 0)
            q.same_component.push_back(
                {qrng.next_below(n), qrng.next_below(n)});
          else
            q.component_size.push_back(qrng.next_below(n));
        }
        qcosts = dg.query(q).costs;
      }

      const std::string label = "batch " + std::to_string(b + 1);
      rep.row(label, st.maintain,
              {{"ingest_ns", st.ingest.modeled_ns},
               {"maintain_ns", st.maintain.modeled_ns},
               {"publish_ns", st.publish.modeled_ns},
               {"query_ns", qcosts.modeled_ns},
               {"total_ns", st.total_modeled_ns()},
               {"ops", static_cast<double>(st.ops)},
               {"inserted", static_cast<double>(st.inserted)},
               {"erased", static_cast<double>(st.erased)},
               {"dirty", static_cast<double>(st.dirty_components)},
               {"rebuilt", st.rebuilt ? 1.0 : 0.0},
               {"iterations", static_cast<double>(st.iterations)},
               {"queries", static_cast<double>(nq)}});
      t.add_row({label, std::to_string(st.ops),
                 st.rebuilt ? "rebuild" : "incremental",
                 std::to_string(st.iterations),
                 Table::eng(st.ingest.modeled_ns),
                 Table::eng(st.maintain.modeled_ns),
                 Table::eng(st.publish.modeled_ns), std::to_string(nq),
                 nq > 0 ? Table::eng(qcosts.modeled_ns) : "-"});
    }
    const auto ref = reference_cc(topo, dg.materialize(), rep, a);
    check_identity(dg, ref.labels, "end of stream");
  }

  emit(a, t);
  std::cout << "(graph: n=" << n << " base m=" << m << ", " << nodes
            << " nodes x " << threads << " threads)\n";
  const int json_rc = rep.finish();
  return rc != 0 ? rc : json_rc;
}
