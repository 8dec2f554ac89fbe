#pragma once

#include <cassert>
#include <cstdint>
#include <span>

#include "collectives/context.hpp"
#include "collectives/options.hpp"
#include "machine/phase_stats.hpp"
#include "pgas/runtime.hpp"
#include "sched/virtual_threads.hpp"

namespace pgraph::coll::detail {

using machine::Cat;

/// Resolve the virtual-thread factor: explicit value, or (for tprime <= 0)
/// the smallest t' whose sub-block fits the modeled cache.  The caller
/// passes the LARGEST per-thread partition (Partitioning::max_local_size,
/// which is ceil(n/s) under the block layout) so skewed degree-aware cuts
/// still size their sub-blocks for the fattest owner.
inline int resolve_tprime(const pgas::ThreadCtx& ctx,
                          const CollectiveOptions& opt,
                          std::size_t max_part_elems,
                          std::size_t elem_bytes) {
  if (opt.tprime > 0) return opt.tprime;
  const std::size_t cache = ctx.mem().params().cache_bytes;
  const std::size_t blk_bytes =
      std::max<std::size_t>(1, max_part_elems * elem_bytes);
  return static_cast<int>((blk_bytes + cache - 1) / cache);
}

/// Compute (or reuse) the virtual-block key of every request index.
/// Charges Cat::Work per the `id` optimization level.
inline void compute_keys(pgas::ThreadCtx& ctx, const sched::VBlocks& vb,
                         std::span<const std::uint64_t> indices,
                         const CollectiveOptions& opt,
                         std::vector<std::uint32_t>& keys, bool& keys_valid) {
  const std::size_t m = indices.size();
  if (opt.id_cache && keys_valid && keys.size() == m) return;
  keys.resize(m);
  for (std::size_t i = 0; i < m; ++i)
    keys[i] = static_cast<std::uint32_t>(vb.vkey(indices[i]));
  ctx.compute(m * (opt.id_direct ? kDirectKeyOps : kIntrinsicKeyOps),
              Cat::Work);
  keys_valid = true;
}

/// Charge the group-phase counting sort per Section IV: one streamed
/// histogram pass, one streamed read pass, two passes over the W-bucket
/// histogram, and the scatter itself.  The scatter keeps W write streams
/// open (one cursor per bucket), so once W cache lines exceed the cache it
/// starts missing — this is what turns the t' curve back up for very large
/// W ("the overhead associated with the extra log n factor may offset
/// gains", Section IV).
inline void charge_group_sort(pgas::ThreadCtx& ctx, std::size_t m,
                              std::size_t w, std::size_t rec_bytes) {
  // Degenerate batch: nothing to histogram, nothing to scatter.  The
  // W-bucket passes only exist to order the m records, so an empty
  // request vector pays nothing (late CC iterations and idle stream
  // threads hit this constantly).
  if (m == 0) return;
  ctx.mem_seq(m * rec_bytes, Cat::Sort);
  ctx.mem_seq(m * rec_bytes, Cat::Sort);
  ctx.mem_random(2 * w, w * sizeof(std::uint64_t), sizeof(std::uint64_t),
                 Cat::Sort);
  const std::size_t line = ctx.mem().params().cache_line_bytes;
  if (w * line > ctx.mem().params().cache_bytes) {
    // The W open write streams no longer fit: each output line is filled,
    // evicted and written back without reuse — line-grained random fills
    // instead of streamed stores.
    ctx.mem_random_write(m * rec_bytes / line, w * line, line, Cat::Sort);
  }
}

/// Derive the per-owner-thread offsets from the per-virtual-block offsets.
inline void derive_thread_offsets(const sched::VBlocks& vb,
                                  const std::vector<std::size_t>& bucket_off,
                                  std::size_t kept,
                                  std::vector<std::size_t>& thr_off) {
  const int s = vb.nthreads;
  thr_off.resize(static_cast<std::size_t>(s) + 1);
  for (int t = 0; t < s; ++t)
    thr_off[static_cast<std::size_t>(t)] = bucket_off[vb.first_bucket(t)];
  thr_off[static_cast<std::size_t>(s)] = kept;
}

/// Step 3 of Algorithm 2: publish per-peer counts and offsets.
///
/// Flat (the paper's UPC reality): one fine-grained remote put per matrix
/// entry — the s^2 small-message all-to-all whose burst collapses t=16.
///
/// Hierarchical (the paper's Section-VI proposal, opt.hierarchical): each
/// node's leader thread ships the node's whole t x t count/offset tile to
/// every other node as ONE coalesced message — p^2 messages total — after
/// an intra-node staging barrier.  The matrix contents are identical, so
/// the serve phase is unchanged.
///
/// The caller must follow with ctx.exchange_barrier() (which degenerates
/// to a plain barrier in the flat case).
inline void write_matrices(pgas::ThreadCtx& ctx, CollectiveContext& cc,
                           const std::vector<std::size_t>& thr_off,
                           const CollectiveOptions& opt) {
  const int s = ctx.nthreads();
  const int me = ctx.id();
  // A shrink since this thread's last publish (see cc.last_gen): a nonzero
  // sentinel makes this pass (flat put loop and hierarchical degenerate
  // check alike) republish every entry of the row, zeros included, after
  // which cache and matrices are coherent again.
  const std::uint64_t gen = ctx.runtime().promotion_generation();
  if (cc.last_gen[static_cast<std::size_t>(me)] != gen) {
    cc.last_gen[static_cast<std::size_t>(me)] = gen;
    for (auto& c : cc.last_cnt[static_cast<std::size_t>(me)]) c = 1;
  }
  if (!opt.hierarchical) {
    // The matrices persist across calls, so a (requester, owner) pair
    // whose batch is empty now and was empty on the previous call can
    // skip the fine-grained put: the remote entry already reads zero.
    // A nonzero -> zero transition must still publish the zero count
    // (owners would otherwise serve the stale batch); the offset entry
    // is never read when the count is zero, so pmatrix is left alone.
    auto& last = cc.last_cnt[static_cast<std::size_t>(me)];
    std::size_t writes = 0;
    for (int j = 0; j < s; ++j) {
      const std::size_t cnt = thr_off[static_cast<std::size_t>(j) + 1] -
                              thr_off[static_cast<std::size_t>(j)];
      if (cnt == 0 && last[static_cast<std::size_t>(j)] == 0) continue;
      const std::size_t row = static_cast<std::size_t>(j) *
                                  static_cast<std::size_t>(s) +
                              static_cast<std::size_t>(me);
      cc.smatrix.put(ctx, row, cnt, Cat::Setup);
      if (cnt != 0)
        cc.pmatrix.put(ctx, row, thr_off[static_cast<std::size_t>(j)],
                       Cat::Setup);
      last[static_cast<std::size_t>(j)] = cnt;
      ++writes;
    }
    ctx.compute(2 * writes, Cat::Setup);
    return;
  }

  const pgas::Topology& topo = ctx.topo();
  const int p = ctx.nnodes();
  const int mynode = ctx.node();
  // Leaders and per-node thread sets resolve through the live owner map:
  // after a permanent-loss shrink the buddy's leader covers the adopted
  // threads, and dead nodes (no hosted threads) get no tile message.  With
  // the identity layout this reduces exactly to leader = mynode * tpn.
  const int leader = topo.leader_of_node(mynode);
  const int my_tpn = topo.threads_on_node(mynode);
  ctx.publish(kSlotCnt, const_cast<std::size_t*>(thr_off.data()));
  ctx.barrier();  // intra-node staging (a full barrier in this runtime)
  if (me == leader) {
    // Node-level degenerate-batch skip: when every thread hosted here has
    // an empty request vector now *and* published all-zero counts on the
    // previous call, the remote tiles already read zero — skip the
    // stores, the tile messages, and the setup charges entirely.
    bool degenerate = true;
    for (int r = 0; r < s && degenerate; ++r) {
      if (topo.node_of(r) != mynode) continue;
      const auto* ro = ctx.peer_as<const std::size_t>(r, kSlotCnt);
      if (ro[static_cast<std::size_t>(s)] != 0) degenerate = false;
      for (const std::uint64_t c : cc.last_cnt[static_cast<std::size_t>(r)])
        if (c != 0) {
          degenerate = false;
          break;
        }
    }
    if (degenerate) return;
    // Write the whole node's columns of SMatrix/PMatrix on behalf of its
    // t threads; one coalesced message per remote node carries the t*t
    // tile pair.
    for (int j = 0; j < s; ++j) {
      for (int r = 0; r < s; ++r) {
        if (topo.node_of(r) != mynode) continue;
        const auto* ro = ctx.peer_as<const std::size_t>(r, kSlotCnt);
        const std::size_t row = static_cast<std::size_t>(j) *
                                    static_cast<std::size_t>(s) +
                                static_cast<std::size_t>(r);
        const std::uint64_t cnt = ro[static_cast<std::size_t>(j) + 1] -
                                  ro[static_cast<std::size_t>(j)];
        cc.smatrix.store_relaxed(row, cnt);
        cc.pmatrix.store_relaxed(row, ro[static_cast<std::size_t>(j)]);
        cc.last_cnt[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)] =
            cnt;
      }
    }
    for (int step = 1; step < p; ++step) {
      const int nd = (mynode + step) % p;  // circular over nodes
      const int nd_tpn = topo.threads_on_node(nd);
      if (nd_tpn == 0) continue;  // dead node: nothing to ship
      const std::size_t tile_bytes = static_cast<std::size_t>(my_tpn) *
                                     static_cast<std::size_t>(nd_tpn) * 2 * 8;
      ctx.post_exchange_msg(topo.leader_of_node(nd), tile_bytes);
    }
    ctx.mem_seq(static_cast<std::size_t>(s) * my_tpn * 16, Cat::Setup);
    ctx.compute(static_cast<std::size_t>(s) * my_tpn * 4, Cat::Setup);
  }
}

/// Per-element op cost of touching the local portion of a shared array,
/// depending on the `localcpy` optimization.
inline std::size_t local_touch_ops(const CollectiveOptions& opt) {
  return opt.localcpy ? kPrivatePtrOps : kSharedPtrOps;
}

/// The exchange-loop visit order ("circular" optimization).
inline int peer_at(const CollectiveOptions& opt, int me, int s, int step) {
  return opt.circular ? (me + step) % s : step;
}

}  // namespace pgraph::coll::detail
