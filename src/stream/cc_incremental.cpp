#include "stream/cc_incremental.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <numeric>
#include <span>

#include "collectives/getd.hpp"
#include "pgas/coll.hpp"
#include "pgas/replica.hpp"

namespace pgraph::stream {

using machine::Cat;

namespace {

/// Min-root union-find over graft pairs laid out as (larger root, smaller
/// root) word pairs.  Returns the sorted keys of every root whose label
/// changes and, slot for slot, the smallest root of its merged group.
/// Deterministic: every thread resolves the same gathered pairs to the same
/// map.
void resolve_roots(const std::vector<std::uint64_t>& pairs,
                   std::vector<std::uint64_t>& keys,
                   std::vector<std::uint64_t>& to) {
  std::vector<std::uint64_t> roots(pairs);
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  const auto slot = [&](std::uint64_t r) {
    return static_cast<std::size_t>(
        std::lower_bound(roots.begin(), roots.end(), r) - roots.begin());
  };
  // Slots are in root order, so linking the larger slot under the smaller
  // one keeps every group's representative at its minimum root.
  std::vector<std::size_t> up(roots.size());
  std::iota(up.begin(), up.end(), std::size_t{0});
  const auto find = [&](std::size_t x) {
    while (up[x] != x) x = up[x] = up[up[x]];
    return x;
  };
  for (std::size_t k = 0; k + 1 < pairs.size(); k += 2) {
    const std::size_t a = find(slot(pairs[k]));
    const std::size_t b = find(slot(pairs[k + 1]));
    if (a != b) up[std::max(a, b)] = std::min(a, b);
  }
  keys.clear();
  to.clear();
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const std::size_t r = find(i);
    if (r == i) continue;
    keys.push_back(roots[i]);
    to.push_back(roots[r]);
  }
}

}  // namespace

IncrementalResult cc_incremental(pgas::Runtime& rt,
                                 pgas::GlobalArray<std::uint64_t>& d,
                                 const std::vector<graph::Edge>& fresh,
                                 const core::CcOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  rt.reset_costs();

  coll::CollectiveContext cc(rt);
  const coll::CollectiveOptions& copt = opt.coll;
  // Canonical labels only ever drop to a smaller root, so D[0] == 0 forever
  // and the offload optimization stays valid, exactly as in cc_coalesced.
  const coll::KnownElement known{0, 0};

  std::atomic<bool> grafted{false};
  IncrementalResult r;

  rt.run([&](pgas::ThreadCtx& ctx) {
    pgas::TraceScope ts_pass(ctx, "stream.maintain");
    const int s = ctx.nthreads();
    const int me = ctx.id();

    // Pre-batch mirrors: a permanent loss mid-pass promotes these and the
    // caller rebuilds from the restored state (no-op without a loss plan).
    pgas::replicate_to_buddy(ctx);

    const auto chunk = graph::edge_chunk(fresh, s, me);
    std::vector<std::uint64_t> eu(chunk.size()), ev(chunk.size());
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      eu[k] = chunk[k].u;
      ev[k] = chunk[k].v;
    }
    ctx.mem_seq(chunk.size() * sizeof(graph::Edge), Cat::Work);

    // --- graft: the endpoints' pre-batch labels are canonical roots, so a
    // fresh edge whose labels differ joins two components.
    std::vector<std::uint64_t> pairs;
    {
      pgas::TraceScope ts(ctx, "stream.graft");
      coll::CollWorkspace<std::uint64_t> ws_u, ws_v;
      std::vector<std::uint64_t> du(eu.size()), dv(ev.size());
      coll::getd(ctx, d, eu, std::span<std::uint64_t>(du), copt, cc, ws_u,
                 known);
      coll::getd(ctx, d, ev, std::span<std::uint64_t>(dv), copt, cc, ws_v,
                 known);
      for (std::size_t k = 0; k < eu.size(); ++k) {
        if (du[k] == dv[k]) continue;
        pairs.push_back(std::max(du[k], dv[k]));
        pairs.push_back(std::min(du[k], dv[k]));
      }
      ctx.mem_seq(eu.size() * 2 * sizeof(std::uint64_t), Cat::Work);
      ctx.compute(eu.size() * 3, Cat::Work);
    }

    if (!pgas::allreduce_or(ctx, !pairs.empty())) return;
    if (me == 0) grafted.store(true, std::memory_order_relaxed);

    // --- resolve: replicate the root-level delta graph (at most one pair
    // per fresh edge) and contract it locally on every thread.
    std::vector<std::uint64_t> keys, to;
    {
      pgas::TraceScope ts(ctx, "stream.resolve");
      std::vector<std::uint64_t> all;
      pgas::allgatherv(ctx, std::span<const std::uint64_t>(pairs), all);
      resolve_roots(all, keys, to);
      const std::size_t words = std::max<std::size_t>(all.size(), 1);
      ctx.compute(words * static_cast<std::size_t>(std::bit_width(words)),
                  Cat::Work);
    }

    // --- relabel: one streamed pass over the own slice, one probe per
    // element into the replicated root map.
    {
      pgas::TraceScope ts(ctx, "stream.relabel");
      auto blk = d.local_span(me);
      // Direct local writes are a checksum commit point for scrubbed arrays.
      const bool track = d.integrity_tracking_thread(me);
      for (std::size_t k = 0; k < blk.size(); ++k) {
        const auto it = std::lower_bound(keys.begin(), keys.end(), blk[k]);
        if (it == keys.end() || *it != blk[k]) continue;
        const std::uint64_t nv = to[static_cast<std::size_t>(
            it - keys.begin())];
        if (track) d.integrity_note(me, d.global_index(me, k), blk[k], nv);
        blk[k] = nv;
      }
      ctx.mem_seq(2 * blk.size() * sizeof(std::uint64_t), Cat::Copy);
      ctx.mem_random(blk.size(), 2 * keys.size() * sizeof(std::uint64_t),
                     sizeof(std::uint64_t), Cat::Work);
      ctx.compute(blk.size(), Cat::Work);
    }
    ctx.barrier();  // every slice relabeled before the labels are read
    if (me == 0) {
      r.merged = std::move(keys);
      r.into = std::move(to);
    }
  });

  r.iterations = grafted.load() ? 2 : 1;
  r.costs = core::collect_costs(rt, t0);
  return r;
}

}  // namespace pgraph::stream
