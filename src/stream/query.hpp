#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/par_common.hpp"
#include "graph/types.hpp"

namespace pgraph::stream {

/// One batch of connectivity queries against a published label epoch.
///
/// Queries never touch the live label array: they are answered from the
/// epoch-versioned snapshots DynamicGraph publishes after each update
/// batch, so a query batch reads one consistent epoch even while the next
/// update batch is being ingested.  `epoch` selects which snapshot;
/// kLatest means "newest published".  Only epochs still in the snapshot
/// ring (the last kEpochRing published) can be served.
struct QueryBatch {
  static constexpr std::uint64_t kLatest = ~0ull;

  std::uint64_t epoch = kLatest;
  /// same_component[i] -> are the two endpoints connected at `epoch`?
  std::vector<std::pair<graph::VertexId, graph::VertexId>> same_component;
  /// component_size[i] -> number of vertices in this vertex's component.
  std::vector<graph::VertexId> component_size;
  /// Trace-scope name the serving run is attributed to in the Chrome trace.
  /// Must be a string literal (TraceScope keeps the pointer); the serving
  /// layer tags its coalesced flushes "serve.flush" so they are separable
  /// from direct "stream.query" batches in the same trace.
  const char* scope = "stream.query";
};

/// Answers to one QueryBatch, plus the modeled cost of serving it.
struct QueryResult {
  std::uint64_t epoch = 0;  ///< the epoch that was actually served
  std::vector<std::uint8_t> same;   ///< parallel to QueryBatch::same_component
  std::vector<std::uint64_t> size;  ///< parallel to QueryBatch::component_size
  core::RunCosts costs;
  /// Modeled ns of the lazy component-size aggregation this batch
  /// triggered (subset of costs.modeled_ns).  The aggregation runs at most
  /// once per published epoch; batches served from the cached sizes report
  /// 0 here.
  double agg_ns = 0.0;
  /// Which path that aggregation took: a full SetDAdd pass over every
  /// vertex, or a roll-forward of an older epoch's sizes by the grafted
  /// roots in between.  Counts completed passes, so at most one is 1.
  std::uint32_t agg_full = 0;
  std::uint32_t agg_delta = 0;
};

}  // namespace pgraph::stream
