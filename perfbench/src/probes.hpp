// Per-layer probes: the runtime and the collectives timed on their own,
// outside any algorithm, on the workload's runtime and edge endpoints.
#pragma once

#include "graph/edge_list.hpp"
#include "pgas/runtime.hpp"

namespace perfbench {

struct PgasProbe {
  double run_empty_us = 0.0;  ///< median wall of an empty Runtime::run
  double barrier_us = 0.0;    ///< median wall per barrier inside one run
};

/// `runs` empty Runtime::run calls, then one run of `barriers` barriers.
PgasProbe probe_pgas(pgraph::pgas::Runtime& rt, int runs, int barriers);

struct CollProbe {
  double getd_us = 0.0;  ///< median host wall per call
  double setd_us = 0.0;
  double setd_min_us = 0.0;
  double getd_modeled_us = 0.0;  ///< modeled duration of one call
  double setd_modeled_us = 0.0;
  double setd_min_modeled_us = 0.0;
};

/// `reps` standalone getd / setd / setd_min calls with the optimized
/// options.  Thread t requests both endpoints of its even chunk of `el`,
/// over an n-element array under the runtime's partitioning policy.
CollProbe probe_collectives(pgraph::pgas::Runtime& rt,
                            const pgraph::graph::EdgeList& el, int reps);

}  // namespace perfbench
