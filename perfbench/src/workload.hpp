// Workload definitions and input generation for the benchmark program.
//
// Every input is a pure function of (workload, size, seed): the graph, the
// phase-A update stream, the phase-B publish batches and the phase-B
// request arrays.  The engine only ever receives these arrays.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "graph/types.hpp"
#include "machine/cost_params.hpp"
#include "serve/workload.hpp"

namespace perfbench {

using namespace pgraph;

/// Every workload runs 2 nodes x 1 thread: two SPMD threads keep host time
/// a measure of the engine rather than of the scheduler on a 4-core VM.
inline constexpr int kNodes = 2;
inline constexpr int kThreadsPerNode = 1;

/// Phase-B traffic mix shared by all workloads: 8 tenants, Zipf 1.1 key
/// popularity, 30% component-size queries; rate ladder in 2^(1/32) steps.
inline constexpr int kSessions = 8;
inline constexpr double kZipfS = 1.1;
inline constexpr double kSizeMix = 0.3;
inline constexpr int kRungsPerOctave = 32;
/// Serve runs at each fixed rate, each with its own requests and
/// publishes; the latency metrics are medians over them, so one costly
/// publish does not set a seed's p99.
inline constexpr std::size_t kFixedRuns = 9;

struct Config {
  std::string name;
  graph::TemporalBase family = graph::TemporalBase::Random;
  bool degree_partition = false;  ///< degree-aware owner map, else block
  std::size_t n = 0;              ///< vertices (R-MAT rounds up to 2^k)
  std::size_t m = 0;              ///< base edges

  /// Phase A: `batches` update batches of `batch_ops` inserts; every
  /// `erase_every`-th batch additionally erases `erase_ops` base edges
  /// (the rebuild fallback), the rest are insert-only.
  std::size_t batches = 0;
  std::size_t batch_ops = 0;
  std::size_t erase_every = 0;
  std::size_t erase_ops = 0;

  /// Phase B: open-loop multi-tenant Zipf serving on the modeled clock.
  double horizon_ns = 0.0;      ///< modeled arrival window of one serve run
  double window_ns = 0.0;       ///< coalescing window
  std::size_t max_batch = 64;   ///< requests per flush before it closes
  std::size_t publishes = 0;    ///< insert-only publishes per serve run,
                                ///< evenly spaced over the horizon
  std::size_t publish_ops = 0;  ///< inserts per publish
  double rate_x1 = 0.0;         ///< fixed offered rates, requests/modeled s
  double rate_x2 = 0.0;
  double p99_limit_ns = 0.0;    ///< latency limit serve_max_rps must meet
  double ladder_lo = 0.0;       ///< lowest rung of the rate ladder, 1/s
  int ladder_rungs = 0;         ///< rung k offers ladder_lo * 2^(k/32)

  double rung_rate(int k) const;
  /// Most serve runs a round makes: the x1 and x2 runs and the ladder's
  /// binary search.
  std::size_t serve_runs() const;
};

/// The named workloads; `tiny` shrinks every size for the smoke tests.
/// Throws std::invalid_argument on an unknown name.
Config config_for(const std::string& name, bool tiny);

struct Inputs {
  graph::EdgeList graph;   ///< base graph (also the solve-phase input)
  graph::WEdgeList wgraph; ///< the same edges with seeded weights
  std::vector<std::vector<graph::EdgeUpdate>> stream;   ///< phase A
  std::vector<std::vector<graph::EdgeUpdate>> publish;  ///< phase B pool
  std::uint64_t digest = 0;  ///< hash of everything above
};

Inputs make_inputs(const Config& c, std::uint64_t seed);

/// Phase-B request array for one offered rate; `rep` numbers the runs at
/// that rate (same seed, rate and rep -> same requests).
std::vector<serve::Request> make_requests(const Config& c, std::size_t n_keys,
                                          std::uint64_t seed, double rate,
                                          std::uint64_t rep);

machine::CostParams cost_params(std::size_t n);

}  // namespace perfbench
