// perfbench: end-to-end and per-layer benchmark of the PGAS graph engine.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--spans <file>] [--corrupt-reference]
//
// One run repeats rounds until --seconds have passed (at least three).  A
// round sets up from scratch (generate inputs, construct the Runtime,
// build the partition policy, label the DynamicGraph base), then runs the
// solve phase (verified cc_coalesced + mst_pgas), phase A (the update
// stream through DynamicGraph::apply_batch) and phase B (open-loop Zipf
// serving through QueryServer at fixed modeled rates, then a binary search
// of the rate ladder).  Every answer is checked against a sequential
// reference; any mismatch fails the run (exit 1).
//
// --trace 0 prints the end-to-end metrics, and rounds after the first only
// set up.  --trace 1 prints the per-layer ones: every round runs every
// phase, rounds alternate untraced/traced, spans are recorded around every
// call into an engine layer and written to --spans, and per-layer host
// times are the spans' self times.  The last stdout line is one JSON
// object {correct, attempted, failed, metrics}.  See METRICS.md.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cc_coalesced.hpp"
#include "core/cc_seq.hpp"
#include "core/dsu.hpp"
#include "core/mst_pgas.hpp"
#include "core/mst_seq.hpp"
#include "graph/stats.hpp"
#include "probes.hpp"
#include "serve/server.hpp"
#include "util.hpp"
#include "workload.hpp"

using namespace pgraph;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_reference = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--size") {
      const std::string v = value();
      if (v != "full" && v != "tiny")
        throw std::invalid_argument("--size takes full or tiny");
      a.tiny = v == "tiny";
    } else if (k == "--spans") {
      a.spans_path = value();
    } else if (k == "--corrupt-reference") {
      a.corrupt_reference = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// ---------------------------------------------------------------------------
// Failure accounting: every checked operation is one attempt.

struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(std::uint64_t attempts, std::uint64_t failures,
           const std::string& what) {
    attempted += attempts;
    failed += failures;
    if (failures > 0) std::cerr << "perfbench: FAILED " << what << "\n";
  }
  void check(bool ok, const std::string& what) { add(1, ok ? 0 : 1, what); }
};

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}
std::uint64_t hash_mix(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return hash_mix(h, bits);
}
std::uint64_t hash_labels(const std::vector<std::uint64_t>& v) {
  std::uint64_t h = v.size();
  for (std::uint64_t x : v) h = hash_mix(h, x);
  return h;
}

// ---------------------------------------------------------------------------
// Sequential references.

struct Reference {
  std::vector<std::uint64_t> cc_labels;
  std::uint64_t mst_weight = 0;
  double cc_seq_s = 0.0;
  double mst_seq_s = 0.0;
};

Reference make_reference(const Inputs& in, bool corrupt) {
  Reference r;
  double t0 = wall_now();
  r.cc_labels = core::cc_dsu(in.graph).labels;
  r.cc_seq_s = wall_now() - t0;
  t0 = wall_now();
  r.mst_weight = core::mst_kruskal(in.wgraph).total_weight;
  r.mst_seq_s = wall_now() - t0;
  if (corrupt && !in.graph.edges.empty()) {
    // Split one edge's endpoints into different components and perturb the
    // forest weight: both checks must now fail.
    const graph::Edge& e = in.graph.edges.front();
    r.cc_labels[e.u] = in.graph.n + 1;
    r.cc_labels[e.v] = in.graph.n + 2;
    r.mst_weight += 1;
  }
  return r;
}

/// The host oracle for serve answers: a union-find over the live edge set,
/// carried through a round's serve runs.  Publishes are insert-only, so a
/// run's answers are checked epoch by epoch while its publishes are united
/// in order, and the next run starts where it left off.
class ServeOracle {
 public:
  explicit ServeOracle(const graph::EdgeList& live)
      : dsu_(live.n), size_(live.n, 1) {
    for (const graph::Edge& e : live.edges) unite(e.u, e.v);
  }
  void unite(std::size_t u, std::size_t v) {
    const std::size_t a = dsu_.find(u), b = dsu_.find(v);
    if (a == b) return;
    dsu_.unite(a, b);
    size_[dsu_.find(a)] = size_[a] + size_[b];
  }
  std::uint64_t answer(const serve::Request& r) {
    const std::size_t a = dsu_.find(r.u);
    return r.kind == serve::QueryKind::SameComponent
               ? static_cast<std::uint64_t>(a == dsu_.find(r.v))
               : size_[a];
  }

 private:
  core::Dsu dsu_;
  std::vector<std::uint64_t> size_;  ///< component size, valid at roots
};

// ---------------------------------------------------------------------------
// One round.

/// Runtime + partition policy + DynamicGraph over the base graph: the
/// state each round sets up before it measures anything.
struct Engine {
  std::unique_ptr<pgas::Runtime> rt;
  std::unique_ptr<stream::DynamicGraph> dg;
  double hot_owner_x = 1.0;  ///< owner_load_stats max/mean edge load
};

struct ServeRun {
  std::size_t offered = 0;
  std::size_t refused = 0;  ///< shed, stale, degraded or left pending
  std::size_t wrong = 0;    ///< answers disagreeing with the oracle
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t digest = 0;
  serve::ServeStats stats;
};

struct Round {
  bool traced = false;
  double wall_s = 0.0;  ///< setup + solves + phase A + phase B
  double setup_s = 0.0;
  double cc_s = 0.0, mst_s = 0.0;  ///< wall time of the timed solves
  double cc_cpu_s = 0.0, mst_cpu_s = 0.0;
  core::RunCosts cc, mst;  ///< costs of the last CC / MST solve
  int cc_iterations = 0;
  int mst_iterations = 0;
  double stream_s = 0.0;
  std::size_t stream_ops = 0;
  std::vector<stream::BatchStats> batches;
  double serve_s = 0.0;
  double serve_cpu_s = 0.0;
  std::size_t serve_requests = 0;
  std::vector<ServeRun> x1, x2;  ///< kFixedRuns runs at each rate
  double max_rps = 0.0;
  serve::ServeStats serve_totals;  ///< counters of the x1 and x2 runs
  double hot_owner_x = 1.0;
  PgasProbe pgas;
  CollProbe coll;
  bool full = false;         ///< ran more than set-up
  std::uint64_t digest = 0;  ///< every modeled number and answer
};

class Bench {
 public:
  Bench(const Args& a, const Config& c) : a_(a), c_(c) {}

  Round round(bool traced, bool first);
  Tracer tracer;
  Ledger ledger;
  Reference ref;
  std::uint64_t inputs_digest = 0;
  std::vector<std::uint64_t> stream_label_digests;

 private:
  ServeRun serve_run(stream::DynamicGraph& dg, const Inputs& in,
                     std::size_t& next_pub, double rate, std::uint64_t rep,
                     ServeOracle* oracle);
  void verify_stream_epoch(stream::DynamicGraph& dg, std::size_t sample,
                           bool first);

  const Args& a_;
  const Config& c_;
};

void Bench::verify_stream_epoch(stream::DynamicGraph& dg, std::size_t sample,
                                bool first) {
  std::vector<std::uint64_t> labels;
  dg.labels().read_all(labels);
  const std::uint64_t h = hash_labels(labels);
  if (!first) {
    ledger.check(sample < stream_label_digests.size() &&
                     stream_label_digests[sample] == h,
                 "stream labels differ from the first round's");
    return;
  }
  stream_label_digests.push_back(h);
  // A fresh cc_coalesced of the live edge set on its own runtime must give
  // the same canonical labels bit for bit, and the union-find oracle the
  // same partition.
  const graph::EdgeList live = dg.materialize();
  pgas::Runtime vrt(pgas::Topology::cluster(kNodes, kThreadsPerNode),
                    cost_params(live.n));
  const core::ParCCResult fresh = core::cc_coalesced(vrt, live);
  ledger.check(fresh.labels == labels,
               "stream labels != fresh cc_coalesced at epoch " +
                   std::to_string(dg.latest_epoch()));
  ledger.check(core::same_partition(core::cc_dsu(live).labels, labels),
               "stream labels != cc_dsu at epoch " +
                   std::to_string(dg.latest_epoch()));
}

ServeRun Bench::serve_run(stream::DynamicGraph& dg, const Inputs& in,
                          std::size_t& next_pub, double rate,
                          std::uint64_t rep, ServeOracle* oracle) {
  const std::vector<serve::Request> reqs =
      make_requests(c_, dg.num_vertices(), a_.seed, rate, rep);
  const std::uint64_t first_epoch = dg.latest_epoch();
  const std::size_t first_pub = next_pub;

  serve::ServerOptions so;
  so.window_ns = c_.window_ns;
  so.max_batch = c_.max_batch;
  so.max_queue = 1024;
  so.cache = true;
  so.verify_every = 8;
  const double horizon = c_.horizon_ns;

  ServeRun out;
  Tracer::Scope run_span(tracer, "serve.run");
  const double w0 = wall_now();
  const double c0 = cpu_now();
  serve::QueryServer srv(dg, kSessions, so);
  std::size_t pubs = 0;
  const auto publish_due = [&](double before_ns) {
    while (pubs < c_.publishes && next_pub < in.publish.size()) {
      const double at = horizon * static_cast<double>(pubs + 1) /
                        static_cast<double>(c_.publishes + 1);
      if (at > before_ns) break;
      Tracer::Scope s(tracer, "serve.publish");
      const std::uint64_t f0 = srv.stats().flushes;
      srv.publish(at, in.publish[next_pub]);
      s.flushes(f0, srv.stats().flushes);
      ++pubs;
      ++next_pub;
    }
  };
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    publish_due(reqs[i].arrive_ns);
    Tracer::Scope s(tracer, "serve.offer", static_cast<std::int64_t>(i));
    const std::uint64_t f0 = srv.stats().flushes;
    srv.offer(reqs[i]);
    s.flushes(f0, srv.stats().flushes);
  }
  publish_due(kInf);
  {
    Tracer::Scope s(tracer, "serve.finish");
    const std::uint64_t f0 = srv.stats().flushes;
    out.stats = srv.finish();
    s.flushes(f0, out.stats.flushes);
  }
  out.cpu_s = cpu_now() - c0;
  out.wall_s = wall_now() - w0;

  // Latency counts from each request's arrival (the open-loop generator is
  // never late); refused requests count as missing every limit.
  std::vector<double> lat;
  lat.reserve(reqs.size());
  // Answered requests by the epoch they were served from, 0 = the epoch
  // before the run's first publish.
  std::vector<std::vector<std::size_t>> by_epoch(next_pub - first_pub + 1);
  std::uint64_t h = hash_mix(0, out.stats.flushes);
  for (std::size_t i = 0; i < srv.outcomes().size(); ++i) {
    const serve::Outcome& o = srv.outcomes()[i];
    h = hash_mix(hash_mix(hash_mix(h, o.answer), o.done_ns),
                 static_cast<std::uint64_t>(o.status));
    if (o.status != serve::Status::Ok) {
      ++out.refused;
      lat.push_back(kInf);
      continue;
    }
    lat.push_back(o.latency_ns());
    const std::size_t e = o.epoch - first_epoch;
    if (e < by_epoch.size())
      by_epoch[e].push_back(i);
    else if (oracle)
      ++out.wrong;
  }
  if (oracle) {
    for (std::size_t e = 0; e < by_epoch.size(); ++e) {
      if (e > 0)
        for (const graph::EdgeUpdate& u : in.publish[first_pub + e - 1])
          oracle->unite(u.u, u.v);
      for (std::size_t i : by_epoch[e])
        if (srv.outcomes()[i].answer != oracle->answer(reqs[i])) ++out.wrong;
    }
  }
  out.wrong += out.stats.verify_mismatches;
  out.offered = reqs.size();
  out.p50_ns = nearest_rank(lat, 0.50);
  out.p99_ns = nearest_rank(lat, 0.99);
  out.digest = h;
  return out;
}

Round Bench::round(bool traced, bool first) {
  Round R;
  R.traced = traced;
  tracer.enabled = traced;
  Tracer::Scope round_span(tracer, "round");
  const double r0 = wall_now();

  // --- set-up ------------------------------------------------------------
  Inputs in;
  Engine eng;
  {
    Tracer::Scope s(tracer, "setup");
    const double t0 = wall_now();
    {
      Tracer::Scope g(tracer, "graph.generate");
      in = make_inputs(c_, a_.seed);
    }
    {
      Tracer::Scope p(tracer, "pgas.runtime");
      eng.rt = std::make_unique<pgas::Runtime>(
          pgas::Topology::cluster(kNodes, kThreadsPerNode),
          cost_params(in.graph.n));
    }
    {
      Tracer::Scope p(tracer, "partition.build");
      partition::PartitionSpec spec;
      if (c_.degree_partition) {
        spec.kind = partition::PartitionKind::Degree;
        spec = spec.with_degrees(graph::degree_histogram(in.graph));
      }
      eng.rt->set_partition_spec(spec);
      eng.hot_owner_x =
          graph::owner_load_stats(in.graph,
                                  eng.rt->make_partitioning(in.graph.n))
              .max_over_mean;
    }
    {
      Tracer::Scope b(tracer, "stream.base_build");
      eng.dg = std::make_unique<stream::DynamicGraph>(*eng.rt, in.graph);
    }
    R.setup_s = wall_now() - t0;
  }
  R.hot_owner_x = eng.hot_owner_x;
  pgas::Runtime& rt = *eng.rt;
  stream::DynamicGraph& dg = *eng.dg;

  if (first) {
    inputs_digest = in.digest;
    Tracer::Scope s(tracer, "reference");
    ref = make_reference(in, a_.corrupt_reference);
  } else {
    ledger.check(in.digest == inputs_digest,
                 "inputs differ from the first round's (same seed)");
  }
  // Every end-to-end metric but setup_s is modeled (or, for peak_rss_mb,
  // set by the first round's solves), so an untraced run measures the rest
  // of the round once and spends its remaining time on set-up samples.
  R.full = first || a_.trace;
  if (!R.full) return R;

  // --- solve phase ---------------------------------------------------------
  const auto cc_ok = [&](const core::ParCCResult& r) {
    return core::same_partition(r.labels, ref.cc_labels);
  };
  const auto mst_ok = [&](const core::ParMstResult& r) {
    if (r.total_weight != ref.mst_weight) return false;
    core::MstResult m;
    m.edges.assign(r.edges.begin(), r.edges.end());
    m.total_weight = r.total_weight;
    return core::is_spanning_forest(in.wgraph, m);
  };
  // The first round starts with an untimed warm-up solve of each kind;
  // the last solve of each kind in a round is the timed one.
  const int solves = first ? 2 : 1;
  for (int k = 0; k < solves; ++k) {
    {
      const double c0 = cpu_now();
      const double w0 = wall_now();
      core::ParCCResult res;
      {
        Tracer::Scope s(tracer, "core.cc_coalesced");
        res = core::cc_coalesced(rt, in.graph);
      }
      const double w = wall_now() - w0;
      const double c = cpu_now() - c0;
      R.cc_s = w;
      R.cc_cpu_s = c;
      ledger.check(cc_ok(res), "cc_coalesced labels != cc_dsu");
      R.cc = res.costs;
      R.cc_iterations = res.iterations;
    }
    {
      const double c0 = cpu_now();
      const double w0 = wall_now();
      core::ParMstResult res;
      {
        Tracer::Scope s(tracer, "core.mst_pgas");
        res = core::mst_pgas(rt, in.wgraph);
      }
      const double w = wall_now() - w0;
      const double c = cpu_now() - c0;
      R.mst_s = w;
      R.mst_cpu_s = c;
      ledger.check(mst_ok(res), "mst_pgas forest != mst_kruskal");
      R.mst = res.costs;
      R.mst_iterations = res.iterations;
    }
  }
  std::uint64_t h = hash_mix(hash_mix(0, R.cc.modeled_ns), R.mst.modeled_ns);

  // --- phase A: the update stream -----------------------------------------
  {
    Tracer::Scope s(tracer, "phase.stream");
    const std::size_t mid = in.stream.size() / 2;
    std::size_t sample = 0;
    for (std::size_t b = 0; b < in.stream.size(); ++b) {
      const double w0 = wall_now();
      stream::BatchStats st;
      {
        Tracer::Scope a(tracer, "stream.apply_batch");
        st = dg.apply_batch(in.stream[b]);
      }
      R.stream_s += wall_now() - w0;
      R.stream_ops += in.stream[b].size();
      ledger.check(st.ops == in.stream[b].size() && st.ignored == 0,
                   "stream batch " + std::to_string(b) + " dropped updates");
      h = hash_mix(h, st.total_modeled_ns());
      R.batches.push_back(st);
      if (b + 1 == mid || b + 1 == in.stream.size()) {
        Tracer::Scope v(tracer, "verify.stream");
        verify_stream_epoch(dg, sample++, first);
      }
    }
  }

  // --- phase B: serving -----------------------------------------------------
  {
    Tracer::Scope s(tracer, "phase.serve");
    std::size_t next_pub = 0;
    std::unique_ptr<ServeOracle> oracle;
    if (first) oracle = std::make_unique<ServeOracle>(dg.materialize());
    const auto run = [&](double rate, std::uint64_t rep) {
      ServeRun r = serve_run(dg, in, next_pub, rate, rep, oracle.get());
      ledger.add(r.offered - r.refused, r.wrong,
                 std::to_string(r.wrong) + " wrong serve answers at rate " +
                     std::to_string(rate));
      return r;
    };
    // The fixed rates: every request must be answered.
    for (std::size_t j = 0; j < kFixedRuns; ++j)
      R.x1.push_back(run(c_.rate_x1, j));
    for (std::size_t j = 0; j < kFixedRuns; ++j)
      R.x2.push_back(run(c_.rate_x2, j));
    std::vector<const ServeRun*> fixed;
    for (const ServeRun& r : R.x1) fixed.push_back(&r);
    for (const ServeRun& r : R.x2) fixed.push_back(&r);
    for (const ServeRun* r : fixed) {
      h = hash_mix(h, r->digest);
      R.serve_s += r->wall_s;
      R.serve_cpu_s += r->cpu_s;
      R.serve_requests += r->offered;
      ledger.add(r->refused, r->refused,
                 std::to_string(r->refused) +
                     " requests refused at a fixed rate");
      const serve::ServeStats& st = r->stats;
      auto& t = R.serve_totals;
      t.offered += st.offered;
      t.shed += st.shed;
      t.flushes += st.flushes;
      t.keys_sent += st.keys_sent;
      t.coalesced += st.coalesced;
      t.cache_hits += st.cache_hits;
      t.cache_misses += st.cache_misses;
      t.verify_mismatches += st.verify_mismatches;
      t.service_ns += st.service_ns;
      t.agg_ns += st.agg_ns;
    }
    // serve_max_rps, in the first round only (modeled, so later rounds
    // would repeat it): the highest ladder rung whose p99 meets the limit
    // with nothing refused, found by binary search over the rungs, and
    // reported as the rate that rung actually offered and answered (its
    // request count over the horizon).
    if (first) {
      const auto pass = [&](int k) {
        const ServeRun r = run(c_.rung_rate(k), 0);
        const bool ok = r.refused == 0 && r.p99_ns <= c_.p99_limit_ns;
        if (ok)
          R.max_rps = static_cast<double>(r.offered) / c_.horizon_ns * 1e9;
        return ok;
      };
      if (pass(0)) {
        int lo = 0, hi = c_.ladder_rungs;
        while (hi - lo > 1) {
          const int mid = (lo + hi) / 2;
          (pass(mid) ? lo : hi) = mid;
        }
      } else {
        // Below the ladder: half the lowest rung, so a regression that
        // fails every rung still reads as a (large) drop.
        R.max_rps = 0.5 * c_.rung_rate(0);
      }
    }
  }
  R.wall_s = wall_now() - r0;
  R.digest = h;

  if (traced) {
    Tracer::Scope s(tracer, "probes");
    {
      Tracer::Scope p(tracer, "probe.pgas");
      R.pgas = probe_pgas(rt, 200, 2000);
    }
    {
      Tracer::Scope p(tracer, "probe.collectives");
      R.coll = probe_collectives(rt, in.graph, 5);
    }
  }
  return R;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Ledger& l, const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::ostringstream os;
  os << "{\"correct\": " << (l.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << l.attempted << ", \"failed\": " << l.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i)
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
       << json_number(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

template <class F>
double median_over(const std::vector<Round>& rs, F f) {
  std::vector<double> v;
  for (const Round& r : rs) v.push_back(f(r));
  return median(v);
}

std::vector<Metric> end_to_end(const std::vector<Round>& rs) {
  const Round& r0 = rs.front();
  std::vector<double> batch_ns;
  for (const stream::BatchStats& b : r0.batches)
    batch_ns.push_back(b.total_modeled_ns());
  // A latency percentile of each fixed-rate run, median over the runs.
  const auto serve_us = [](const std::vector<ServeRun>& runs,
                           double ServeRun::*pct) {
    std::vector<double> v;
    for (const ServeRun& r : runs) v.push_back(1e-3 * (r.*pct));
    return median(v);
  };
  return {
      {"setup_s", median_over(rs, [](const Round& r) { return r.setup_s; }),
       "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"cc_modeled_ms", r0.cc.modeled_ms(), "ms"},
      {"mst_modeled_ms", r0.mst.modeled_ms(), "ms"},
      {"stream_batch_p50_modeled_us", 1e-3 * nearest_rank(batch_ns, 0.50),
       "us"},
      {"stream_batch_p95_modeled_us", 1e-3 * nearest_rank(batch_ns, 0.95),
       "us"},
      {"serve_p50_modeled_us.x1", serve_us(r0.x1, &ServeRun::p50_ns), "us"},
      {"serve_p99_modeled_us.x1", serve_us(r0.x1, &ServeRun::p99_ns), "us"},
      {"serve_p99_modeled_us.x2", serve_us(r0.x2, &ServeRun::p99_ns), "us"},
      {"serve_max_rps", r0.max_rps, "1/s"},
  };
}

/// Per span name, the summed self time of its spans in each traced round
/// (a root span starts a round).
std::map<std::string, std::vector<double>> self_by_round(const Tracer& tr) {
  std::map<std::string, std::vector<double>> out;
  const std::vector<double> self = tr.self_times();
  std::map<std::string, double> cur;
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    const Span& s = tr.spans[i];
    if (s.parent < 0) {
      for (auto& [k, v] : cur) out[k].push_back(v);
      cur.clear();
      continue;
    }
    cur[s.name] += self[i];
  }
  for (auto& [k, v] : cur) out[k].push_back(v);
  return out;
}

std::vector<Metric> per_layer(const std::vector<Round>& rs, const Tracer& tr,
                              const Ledger& l, const Reference& ref) {
  // The first round also runs the reference, the warm-up solves, the
  // oracle checks and the ladder, so only later rounds are compared.
  std::vector<Round> traced, plain;
  for (std::size_t i = 1; i < rs.size(); ++i)
    (rs[i].traced ? traced : plain).push_back(rs[i]);
  const Round& r0 = rs.front();
  const auto spans = self_by_round(tr);
  const auto span_med = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : median(it->second);
  };
  const auto tmed = [&](auto f) { return median_over(traced, f); };

  std::vector<Metric> ms;
  ms.push_back({"failed_frac",
                static_cast<double>(l.failed) /
                    static_cast<double>(std::max<std::uint64_t>(1, l.attempted)),
                "frac"});
  ms.push_back({"graph.generate_s", span_med("graph.generate"), "s"});
  ms.push_back({"partition.build_ms", 1e3 * span_med("partition.build"), "ms"});
  ms.push_back({"partition.hot_owner_x", r0.hot_owner_x, "x"});
  ms.push_back({"pgas.run_empty_us",
                tmed([](const Round& r) { return r.pgas.run_empty_us; }), "us"});
  ms.push_back({"pgas.barrier_us",
                tmed([](const Round& r) { return r.pgas.barrier_us; }), "us"});
  ms.push_back({"coll.getd_us",
                tmed([](const Round& r) { return r.coll.getd_us; }), "us"});
  ms.push_back({"coll.setd_us",
                tmed([](const Round& r) { return r.coll.setd_us; }), "us"});
  ms.push_back({"coll.setd_min_us",
                tmed([](const Round& r) { return r.coll.setd_min_us; }), "us"});
  const CollProbe& cp = traced.front().coll;
  ms.push_back({"coll.getd_modeled_us", cp.getd_modeled_us, "us"});
  ms.push_back({"coll.setd_modeled_us", cp.setd_modeled_us, "us"});
  ms.push_back({"coll.setd_min_modeled_us", cp.setd_min_modeled_us, "us"});

  const auto core_metrics = [&](const char* k, const core::RunCosts& c,
                                int iters, auto cpu) {
    const std::string p = std::string("core.") + k + ".";
    ms.push_back({p + "iterations", static_cast<double>(iters), "count"});
    ms.push_back({p + "barriers", static_cast<double>(c.barriers), "count"});
    ms.push_back({p + "messages", static_cast<double>(c.messages), "count"});
    ms.push_back({p + "bytes", static_cast<double>(c.bytes), "B"});
    ms.push_back({p + "cpu_s", tmed(cpu), "s"});
    for (machine::Cat cat :
         {machine::Cat::Comm, machine::Cat::Sort, machine::Cat::Copy,
          machine::Cat::Irregular, machine::Cat::Setup, machine::Cat::Work})
      ms.push_back({p + "modeled." + std::string(machine::cat_name(cat)) +
                        "_ms",
                    1e-6 * c.breakdown.get(cat), "ms"});
  };
  core_metrics("cc", r0.cc, r0.cc_iterations,
               [](const Round& r) { return r.cc_cpu_s; });
  core_metrics("mst", r0.mst, r0.mst_iterations,
               [](const Round& r) { return r.mst_cpu_s; });
  ms.push_back({"core.cc_seq_s", ref.cc_seq_s, "s"});
  ms.push_back({"core.mst_seq_s", ref.mst_seq_s, "s"});
  // End to end in spirit, but too noisy to gate (STEADINESS.md).
  ms.push_back({"cc_solve_s",
                median_over(plain, [](const Round& r) { return r.cc_s; }),
                "s"});
  ms.push_back({"mst_solve_s",
                median_over(plain, [](const Round& r) { return r.mst_s; }),
                "s"});

  // Stream: per-batch medians of the BatchStats phases (host from traced
  // rounds, modeled from the first round; both are per batch).
  std::vector<double> host[3], mod[3];
  for (const Round& r : traced)
    for (const stream::BatchStats& b : r.batches) {
      host[0].push_back(b.ingest.wall_s);
      host[1].push_back(b.maintain.wall_s);
      host[2].push_back(b.publish.wall_s);
    }
  std::size_t rebuilds = 0;
  for (const stream::BatchStats& b : r0.batches) {
    mod[0].push_back(b.ingest.modeled_ns);
    mod[1].push_back(b.maintain.modeled_ns);
    mod[2].push_back(b.publish.modeled_ns);
    rebuilds += b.rebuilt ? 1 : 0;
  }
  const char* phase[3] = {"ingest", "maintain", "publish"};
  for (int i = 0; i < 3; ++i)
    ms.push_back({std::string("stream.") + phase[i] + "_us",
                  1e6 * median(host[i]), "us"});
  for (int i = 0; i < 3; ++i)
    ms.push_back({std::string("stream.") + phase[i] + "_modeled_us",
                  1e-3 * median(mod[i]), "us"});
  ms.push_back({"stream.rebuild_frac",
                static_cast<double>(rebuilds) /
                    static_cast<double>(std::max<std::size_t>(1, r0.batches.size())),
                "frac"});
  ms.push_back({"stream.base_build_s", span_med("stream.base_build"), "s"});
  // End to end in spirit, but too noisy to gate (STEADINESS.md).
  ms.push_back({"stream_updates_per_s",
                median_over(plain,
                            [](const Round& r) {
                              return static_cast<double>(r.stream_ops) /
                                     r.stream_s;
                            }),
                "1/s"});

  // Serve: host self times of the fixed-rate and ladder loops per round;
  // counters from the two fixed-rate runs.
  ms.push_back({"serve.offer_s", span_med("serve.offer"), "s"});
  ms.push_back({"serve.publish_s", span_med("serve.publish"), "s"});
  ms.push_back({"serve.finish_s", span_med("serve.finish"), "s"});
  ms.push_back({"serve.cpu_s", tmed([](const Round& r) { return r.serve_cpu_s; }),
                "s"});
  // End to end in spirit, but too noisy to gate (STEADINESS.md).
  ms.push_back({"serve_requests_per_s",
                median_over(plain,
                            [](const Round& r) {
                              return static_cast<double>(r.serve_requests) /
                                     r.serve_s;
                            }),
                "1/s"});

  const serve::ServeStats& t = r0.serve_totals;
  ms.push_back({"serve.flushes", static_cast<double>(t.flushes), "count"});
  ms.push_back({"serve.keys_sent", static_cast<double>(t.keys_sent), "count"});
  ms.push_back({"serve.cache_hit_rate", t.cache_hit_rate(), "frac"});
  ms.push_back({"serve.coalesce_ratio",
                static_cast<double>(t.coalesced) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, t.coalesced + t.keys_sent)),
                "frac"});
  ms.push_back({"serve.shed_frac",
                static_cast<double>(t.shed) /
                    static_cast<double>(std::max<std::uint64_t>(1, t.offered)),
                "frac"});
  ms.push_back({"serve.service_modeled_ms", 1e-6 * t.service_ns, "ms"});
  ms.push_back({"serve.agg_share",
                t.service_ns > 0 ? t.agg_ns / t.service_ns : 0.0, "frac"});
  ms.push_back({"serve.verify_mismatches",
                static_cast<double>(t.verify_mismatches), "count"});

  const double tw = median_over(traced, [](const Round& r) { return r.wall_s; });
  const double pw = median_over(plain, [](const Round& r) { return r.wall_s; });
  ms.push_back({"trace.overhead_frac", pw > 0 ? tw / pw - 1.0 : 0.0, "frac"});
  return ms;
}

void write_spans(const Tracer& tr, const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  f << "{\"columns\": [\"name\", \"t0_s\", \"t1_s\", \"parent\", \"id\", "
       "\"flush_lo\", \"flush_hi\"],\n\"spans\": [\n";
  const double base = tr.spans.empty() ? 0.0 : tr.spans.front().t0;
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    const Span& s = tr.spans[i];
    f << (i ? ",\n" : "") << "[\"" << s.name << "\", "
      << json_number(s.t0 - base) << ", " << json_number(s.t1 - base) << ", "
      << s.parent << ", " << s.id << ", " << s.flush_lo << ", " << s.flush_hi
      << "]";
  }
  f << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  Config c;
  try {
    a = parse_args(argc, argv);
    c = config_for(a.workload, a.tiny);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  const double deadline = wall_now() + a.seconds;
  Bench bench(a, c);
  std::vector<Round> rounds;
  constexpr std::size_t kMinRounds = 3;
  try {
    while (true) {
      const bool traced = a.trace && rounds.size() % 2 == 1;
      const double t0 = wall_now();
      rounds.push_back(bench.round(traced, rounds.empty()));
      const double took = wall_now() - t0;
      const Round& r = rounds.back();
      std::fprintf(stderr,
                   "perfbench: %s round %zu%s %.2fs: setup %.3fs cc %.3fs "
                   "mst %.3fs stream %.3fs serve %.3fs\n",
                   c.name.c_str(), rounds.size(), traced ? " traced" : "",
                   took, r.setup_s, r.cc_s, r.mst_s,
                   r.stream_s, r.serve_s);
      if (rounds.size() >= 2 && r.full)
        bench.ledger.check(r.digest == rounds.front().digest,
                           "modeled results differ between rounds");
      if (rounds.size() >= kMinRounds && wall_now() + took > deadline) break;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    bench.ledger.check(false, "engine threw");
    print_result(bench.ledger, {});
    return 1;
  }

  std::vector<Metric> ms;
  if (a.trace) {
    ms = per_layer(rounds, bench.tracer, bench.ledger, bench.ref);
    if (!a.spans_path.empty()) write_spans(bench.tracer, a.spans_path);
  } else {
    ms = end_to_end(rounds);
  }
  print_result(bench.ledger, ms);
  return bench.ledger.failed == 0 ? 0 : 1;
}
