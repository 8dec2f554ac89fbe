#pragma once

#include <cstdint>
#include <vector>

#include "collectives/context.hpp"
#include "core/cc_coalesced.hpp"
#include "core/par_common.hpp"
#include "graph/edge_list.hpp"
#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::stream {

/// Result of one incremental maintenance pass.
struct IncrementalResult {
  /// Label-resolution supersteps: 1 when no fresh edge joined two
  /// components (the pass stopped after the endpoint label read), 2 when
  /// it grafted and ran the resolve-and-relabel superstep.
  int iterations = 0;
  core::RunCosts costs;
  /// The grafted-root map every thread resolved: the sorted roots that
  /// stopped being roots and, slot for slot, the root each one merged
  /// into.  Empty when no fresh edge joined two components.
  std::vector<std::uint64_t> merged;
  std::vector<std::uint64_t> into;
};

/// Incremental connectivity maintenance: fold a batch of freshly inserted
/// edges into an existing canonical labeling in one superstep.
///
/// Precondition: `d` holds the canonical CC labels of the pre-batch graph
/// — every vertex labeled with the minimum vertex id of its component,
/// i.e. exactly the fixed point `cc_coalesced` converges to.  The labels
/// are rooted stars, so the pass never pointer-jumps:
///
///  1. graft — GetD both endpoint labels of every fresh edge (all Section
///     V optimizations of `opt.coll` apply).  Each label is a root; an
///     edge with different labels yields a (larger root, smaller root)
///     pair.  An all-reduce stops a batch with no pair right here, at the
///     cost of the two GetDs and the all-reduce.
///  2. resolve — `pgas::allgatherv` replicates the pairs (the root-level
///     delta graph, at most one pair per fresh edge) in one coalesced
///     exchange, and every thread runs the same min-root union-find over
///     them: a sorted map from each merged root to its group's smallest
///     root.  Charged as the exchange plus a streamed read of the pairs
///     and P log P work for P gathered words.
///  3. relabel — every thread rewrites its own slice in one streamed scan
///     (a streamed read and write of the slice, one probe per element into
///     the replicated map over the map's working set), noting each write
///     in the integrity checksum when `d` is scrub-tracked, then one
///     barrier.
///
/// Components untouched by the batch cost only the degenerate-batch floor
/// of the collectives plus the relabel scan.
///
/// Bit-identity: the canonical min-id labeling of a graph is unique.  A
/// merged group's minimum root is the minimum vertex id of the union of
/// its components, so after this pass `d` is bit-identical to a fresh
/// `cc_coalesced` run over the materialized edge set.  Deletions are NOT
/// handled here (they can split components); callers route deletion
/// batches through the full-rebuild fallback.
///
/// Only `opt.coll` applies: `opt.compact` and `opt.max_iters` configure
/// `cc_coalesced`'s iterative loop, which this pass does not have.
/// A buddy-replication pass runs first (no-op without a loss plan), so a
/// permanent node loss mid-pass shrinks onto pre-batch mirrors and
/// surfaces as FaultError{PermanentLoss} for the caller's rebuild path.
///
/// Calls rt.reset_costs(); the returned costs cover only this pass.
IncrementalResult cc_incremental(pgas::Runtime& rt,
                                 pgas::GlobalArray<std::uint64_t>& d,
                                 const std::vector<graph::Edge>& fresh,
                                 const core::CcOptions& opt);

}  // namespace pgraph::stream
