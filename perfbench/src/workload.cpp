#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/rng.hpp"

namespace perfbench {

namespace {

Config base_config(const std::string& name) {
  Config c;
  c.name = name;
  c.ladder_rungs = 128;
  if (name == "cc-mst-uniform" || name == "cc-mst-rmat-degree") {
    // The kernels dominate; phases A and B run a fixed light load.
    c.n = 250000;
    if (name == "cc-mst-rmat-degree") {
      c.family = graph::TemporalBase::Rmat;
      c.degree_partition = true;
      c.n = 1u << 18;
    }
    c.m = 4 * c.n;
    c.batches = 24;
    c.batch_ops = 100;
    c.erase_every = 12;
    c.erase_ops = 100;
    c.window_ns = 1e6;
    c.horizon_ns = 100e6;
    c.publishes = 1;
    c.publish_ops = 100;
    c.rate_x1 = 25e3;
    c.rate_x2 = 50e3;
    c.p99_limit_ns = 15e6;
    c.max_batch = 16;
    c.ladder_lo = 25e3;
    if (c.degree_partition) c.p99_limit_ns = 30e6;
  } else if (name == "stream-serve-zipf") {
    c.n = 100000;
    c.m = 4 * c.n;
    c.batches = 200;
    c.batch_ops = 1000;
    c.erase_every = 50;
    c.erase_ops = 100;
    c.window_ns = 500e3;
    c.horizon_ns = 200e6;
    c.publishes = 8;
    c.publish_ops = 1000;
    c.max_batch = 32;
    c.rate_x1 = 100e3;
    c.rate_x2 = 200e3;
    c.p99_limit_ns = 6e6;
    c.ladder_lo = 50e3;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return c;
}

}  // namespace

double Config::rung_rate(int k) const {
  return ladder_lo * std::exp2(static_cast<double>(k) / kRungsPerOctave);
}

std::size_t Config::serve_runs() const {
  std::size_t probes = 0;
  while ((1 << probes) < ladder_rungs) ++probes;
  return 2 * kFixedRuns + probes + 1;
}

Config config_for(const std::string& name, bool tiny) {
  Config c = base_config(name);
  if (tiny) {
    c.n = c.family == graph::TemporalBase::Rmat ? 2048 : 2000;
    c.m = 4 * c.n;
    c.batches = 8;
    c.batch_ops = 50;
    c.erase_every = 4;
    c.erase_ops = 10;
    c.horizon_ns = 10e6;
    c.publishes = 2;
    c.publish_ops = 20;
    c.ladder_rungs = 16;
  }
  return c;
}

machine::CostParams cost_params(std::size_t n) {
  // The committed benches' scaling: the modeled cache shrinks with the
  // graph so working sets keep the paper's cache-to-data ratio.
  machine::CostParams p = machine::CostParams::hps_cluster();
  p.cache_bytes = static_cast<std::size_t>(std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(n) * 8 / 420, 4096, 1u << 21));
  return p;
}

Inputs make_inputs(const Config& c, std::uint64_t seed) {
  const std::size_t pool =
      c.serve_runs() * c.publishes * c.publish_ops;
  graph::TemporalStreamParams tp;
  tp.base = c.family;
  tp.base_edges = c.m;
  graph::TemporalStream ts =
      graph::temporal_stream(c.n, c.batches * c.batch_ops + pool, seed, tp);

  Inputs in;
  in.graph = std::move(ts.base);
  in.wgraph = graph::with_random_weights(in.graph, seed + 1);

  // Erases name distinct base edges, drawn by a seeded partial shuffle.
  // The stream never re-inserts a base edge, so each erase removes a live
  // edge exactly once.
  std::vector<std::size_t> pick(in.graph.m());
  for (std::size_t i = 0; i < pick.size(); ++i) pick[i] = i;
  graph::Xoshiro256 rng(seed ^ 0x3c6ef372fe94f82bULL);
  std::size_t picked = 0;

  std::uint64_t ts_next = 0;
  std::size_t next_insert = 0;
  const auto take_inserts = [&](std::vector<graph::EdgeUpdate>& b,
                                std::size_t k) {
    for (std::size_t i = 0; i < k; ++i) {
      graph::EdgeUpdate u = ts.updates[next_insert++];
      u.ts = ++ts_next;
      b.push_back(u);
    }
  };
  for (std::size_t b = 0; b < c.batches; ++b) {
    std::vector<graph::EdgeUpdate> batch;
    take_inserts(batch, c.batch_ops);
    if (c.erase_every > 0 && b % c.erase_every == c.erase_every - 1) {
      for (std::size_t i = 0; i < c.erase_ops && picked < pick.size(); ++i) {
        const std::size_t j =
            picked + rng.next_below(pick.size() - picked);
        std::swap(pick[picked], pick[j]);
        const graph::Edge& e = in.graph.edges[pick[picked++]];
        batch.push_back({e.u, e.v, ++ts_next, graph::UpdateKind::Erase});
      }
    }
    in.stream.push_back(std::move(batch));
  }
  for (std::size_t p = 0; p < c.serve_runs() * c.publishes; ++p) {
    std::vector<graph::EdgeUpdate> batch;
    take_inserts(batch, c.publish_ops);
    in.publish.push_back(std::move(batch));
  }

  std::uint64_t h = in.graph.n;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const graph::WEdge& e : in.wgraph.edges) {
    mix(e.u);
    mix(e.v);
    mix(e.w);
  }
  for (const auto* batches : {&in.stream, &in.publish})
    for (const auto& b : *batches)
      for (const graph::EdgeUpdate& u : b) {
        mix(u.u);
        mix(u.v);
        mix(static_cast<std::uint64_t>(u.kind));
      }
  in.digest = h;
  return in;
}

std::vector<serve::Request> make_requests(const Config& c, std::size_t n_keys,
                                          std::uint64_t seed, double rate,
                                          std::uint64_t rep) {
  serve::WorkloadParams wp;
  wp.sessions = kSessions;
  wp.rate_rps = rate;
  wp.horizon_ns = c.horizon_ns;
  wp.zipf_s = kZipfS;
  wp.size_mix = kSizeMix;
  return serve::generate_workload(
      n_keys, (seed ^ 0xbb67ae8584caa73bULL) + rep * 0x9e3779b97f4a7c15ULL, wp);
}

}  // namespace perfbench
