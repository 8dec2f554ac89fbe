#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>

#include "collectives/context.hpp"
#include "collectives/options.hpp"
#include "fault/fault.hpp"
#include "machine/phase_stats.hpp"
#include "pgas/runtime.hpp"
#include "pgas/trace_hook.hpp"
#include "sched/count_sort.hpp"
#include "sched/virtual_threads.hpp"

/// Algorithm 2's stages, implemented once for GetD, SetD / SetDMin /
/// SetDAdd and the stream layer's update ingest: route -> exchange -> owner
/// walk, plus the fault protocol's retransmit loop.  The ops are thin
/// kernels over them (getd.hpp, setd.hpp, stream/dynamic_graph.cpp);
/// callbacks are template parameters, so per-element loops stay inlined.
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

/// A two-word routed record: the index word plus a value word (SetD*
/// requests, stream updates).  One-word routes emit the index alone.
template <class T>
struct Record {
  std::uint64_t idx;
  T val;
};

/// Route stage (step 1 of Algorithm 2, "group"): stable count sort of the
/// m requests into bucket order, then the per-owner offsets.
///
/// `key(i)` is request i's bucket in [0, vb.nbuckets()) — its virtual
/// block, or its owner when t' = 1 — or sched::kDropped to answer it
/// without routing (GetD `offload`).  `rec(i)` is its record: the index
/// word alone, or a Record whose value lands in ws.sorted_val.  kRank also
/// keeps i in ws.rank so replies can be permuted back.  Fills
/// ws.bucket_off, ws.sorted (plus sorted_val / rank) and ws.thr_off,
/// charges the sort at the record's width, and returns the kept count.
template <bool kRank, class T, class KeyFn, class RecFn>
std::size_t route(pgas::ThreadCtx& ctx, const sched::VBlocks& vb,
                  std::size_t m, CollWorkspace<T>& ws, KeyFn key,
                  RecFn rec) {
  using R = decltype(rec(std::size_t{0}));
  constexpr bool kTwoWord = !std::is_same_v<R, std::uint64_t>;
  constexpr std::size_t rec_bytes = sizeof(std::uint64_t) +
                                    (kTwoWord ? sizeof(T) : 0) +
                                    (kRank ? sizeof(std::uint32_t) : 0);
  const std::size_t w = vb.nbuckets();
  const std::size_t kept =
      sched::count_sort_offsets(m, w, key, ws.bucket_off);
  ws.sorted.resize(kept);
  if constexpr (kTwoWord) ws.sorted_val.resize(kept);
  if constexpr (kRank) ws.rank.resize(kept);
  sched::count_sort_scatter(
      m, key,
      [&](std::size_t i, std::size_t pos) {
        const R r = rec(i);
        if constexpr (kTwoWord) {
          ws.sorted[pos] = r.idx;
          ws.sorted_val[pos] = r.val;
        } else {
          ws.sorted[pos] = r;
        }
        if constexpr (kRank) ws.rank[pos] = static_cast<std::uint32_t>(i);
      },
      ws.bucket_off, ws.cursor);
  charge_group_sort(ctx, m, w, rec_bytes);

  ws.thr_off.resize(static_cast<std::size_t>(vb.nthreads) + 1);
  for (int t = 0; t < vb.nthreads; ++t)
    ws.thr_off[static_cast<std::size_t>(t)] = ws.bucket_off[vb.first_bucket(t)];
  ws.thr_off.back() = kept;
  return kept;
}

/// Wire shape of one routed batch, shared by the exchange stage and the
/// owner walk.
struct Wire {
  std::size_t req_rec;    ///< bytes per record, requester -> owner
  std::size_t reply_rec;  ///< bytes per record, owner -> requester (GetD)
  /// Per-batch checksum bytes riding on the batch's last message (the
  /// fault protocol, docs/ROBUSTNESS.md); 0 = no checksums.
  std::size_t sum;
};

/// Wire.sum for this call: 8 B when the fault plan corrupts collective
/// payloads, else 0 (no checksums).
inline std::size_t sum_bytes(pgas::ThreadCtx& ctx) {
  const fault::FaultInjector* finj = ctx.runtime().fault_injector();
  return finj != nullptr && finj->config().corruption_enabled()
             ? sizeof(std::uint64_t)
             : 0;
}

/// One buffer of a checksummed batch.
struct Payload {
  void* p = nullptr;
  std::size_t bytes = 0;
};

/// Checksum of a batch held in one buffer (GetD replies) or two (SetD*
/// index and value words).
inline std::uint64_t batch_sum(Payload a, Payload b = {}) {
  const std::uint64_t sa = fault::checksum_words(a.p, a.bytes);
  return b.bytes == 0 ? sa : sa ^ fault::checksum_words(b.p, b.bytes);
}

/// The checksum-retransmit loop of the fault protocol: while the batch in
/// `a` (and `b`) fails its checksum `expect`, a modeled retransmission
/// (round trip + backoff) delivers the clean copy and the receiver
/// re-validates it at `check_ops`.  Throws `what` once the plan's retry
/// budget is spent.
inline void retransmit(pgas::ThreadCtx& ctx, std::uint64_t expect, Payload a,
                       Payload b, std::size_t check_ops, const char* what) {
  fault::FaultInjector& finj = *ctx.runtime().fault_injector();
  int tries = 0;
  while (batch_sum(a, b) != expect) {
    if (tries++ >= finj.config().max_retries)
      throw fault::FaultError(fault::FaultKind::Corruption, what);
    finj.count_detected();
    const std::size_t bytes = a.bytes + b.bytes + 24;
    ctx.charge(Cat::Comm, ctx.net().msg_wire_ns(bytes) +
                              finj.config().backoff_ns_for(tries - 1));
    ctx.net().count_message(bytes);
    finj.count_retransmits(1);
    finj.repair(a.p, a.bytes);
    if (b.bytes != 0) finj.repair(b.p, b.bytes);
    ctx.compute(check_ops, Cat::Copy);
  }
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
/// the owner walk is unchanged.
inline void write_matrices(pgas::ThreadCtx& ctx, CollectiveContext& cc,
                           const std::vector<std::size_t>& thr_off,
                           const CollectiveOptions& opt) {
  const auto s = static_cast<std::size_t>(ctx.nthreads());
  const auto me = static_cast<std::size_t>(ctx.id());
  auto& last = cc.last_cnt[me];
  // A shrink since this thread's last publish (see cc.last_gen): a nonzero
  // sentinel makes this pass (flat put loop and hierarchical degenerate
  // check alike) republish every entry of the row, zeros included, after
  // which cache and matrices are coherent again.
  const std::uint64_t gen = ctx.runtime().promotion_generation();
  if (cc.last_gen[me] != gen) {
    cc.last_gen[me] = gen;
    std::fill(last.begin(), last.end(), 1);
  }
  if (!opt.hierarchical) {
    // The matrices persist across calls, so a (requester, owner) pair
    // whose batch is empty now and was empty on the previous call can
    // skip the fine-grained put: the remote entry already reads zero.
    // A nonzero -> zero transition must still publish the zero count
    // (owners would otherwise serve the stale batch); the offset entry
    // is never read when the count is zero, so pmatrix is left alone.
    std::size_t writes = 0;
    for (std::size_t j = 0; j < s; ++j) {
      const std::size_t cnt = thr_off[j + 1] - thr_off[j];
      if (cnt == 0 && last[j] == 0) continue;
      cc.smatrix.put(ctx, j * s + me, cnt, Cat::Setup);
      if (cnt != 0) cc.pmatrix.put(ctx, j * s + me, thr_off[j], Cat::Setup);
      last[j] = cnt;
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
  const auto my_tpn = static_cast<std::size_t>(topo.threads_on_node(mynode));
  ctx.publish(kSlotCnt, const_cast<std::size_t*>(thr_off.data()));
  ctx.barrier();  // intra-node staging (a full barrier in this runtime)
  if (ctx.id() != topo.leader_of_node(mynode)) return;
  const auto offsets_of = [&](std::size_t r) {
    return ctx.peer_as<const std::size_t>(static_cast<int>(r), kSlotCnt);
  };
  const auto on_my_node = [&](std::size_t r) {
    return topo.node_of(static_cast<int>(r)) == mynode;
  };
  // Node-level degenerate-batch skip: when every thread hosted here has an
  // empty request vector now *and* published all-zero counts on the
  // previous call, the remote tiles already read zero — skip the stores,
  // the tile messages, and the setup charges entirely.
  bool degenerate = true;
  for (std::size_t r = 0; r < s && degenerate; ++r)
    if (on_my_node(r))
      degenerate = offsets_of(r)[s] == 0 &&
                   std::all_of(cc.last_cnt[r].begin(), cc.last_cnt[r].end(),
                               [](std::uint64_t c) { return c == 0; });
  if (degenerate) return;
  // Write the whole node's columns of SMatrix/PMatrix on behalf of its t
  // threads; one coalesced message per remote node carries the t*t tile
  // pair.
  for (std::size_t j = 0; j < s; ++j) {
    for (std::size_t r = 0; r < s; ++r) {
      if (!on_my_node(r)) continue;
      const std::size_t* ro = offsets_of(r);
      cc.smatrix.store_relaxed(j * s + r, ro[j + 1] - ro[j]);
      cc.pmatrix.store_relaxed(j * s + r, ro[j]);
      cc.last_cnt[r][j] = ro[j + 1] - ro[j];
    }
  }
  for (int step = 1; step < p; ++step) {
    const int nd = (mynode + step) % p;  // circular over nodes
    const auto nd_tpn = static_cast<std::size_t>(topo.threads_on_node(nd));
    if (nd_tpn == 0) continue;  // dead node: nothing to ship
    ctx.post_exchange_msg(topo.leader_of_node(nd), my_tpn * nd_tpn * 2 * 8);
  }
  ctx.mem_seq(s * my_tpn * 16, Cat::Setup);
  ctx.compute(s * my_tpn * 4, Cat::Setup);
}

/// Exchange stage (steps 2-4 of Algorithm 2): publish the routed records —
/// index words in kSlotIdx, plus the GetD reply buffer (kSlotData) or the
/// value words (kSlotVal) — write SMatrix/PMatrix under the trace scope
/// `scope`, and run the exchange barrier.
///
/// With `wire.sum` set the checksum protocol (docs/ROBUSTNESS.md) rides
/// along: a routed request batch (no reply) is sealed here, before it is
/// exposed, and the injector then damages the staged buffers — corruption
/// on the wire, caught owner-side before anything is applied.  A reply
/// route instead publishes zeroed sums the owners deposit into.
template <class T>
void exchange(pgas::ThreadCtx& ctx, CollectiveContext& cc,
              const CollectiveOptions& opt, const char* scope,
              const Wire& wire, CollWorkspace<T>& ws) {
  const auto s = static_cast<std::size_t>(ctx.nthreads());
  const int me = ctx.id();
  const bool reply = wire.reply_rec != 0;
  if (wire.sum != 0 && !reply) {
    fault::FaultInjector& finj = *ctx.runtime().fault_injector();
    const std::size_t m = ws.thr_off[s];
    ws.sums.assign(s, 0);
    for (std::size_t j = 0; j < s; ++j) {
      const std::size_t off = ws.thr_off[j], cnt = ws.thr_off[j + 1] - off;
      if (cnt != 0)
        ws.sums[j] = batch_sum({ws.sorted.data() + off, cnt * 8},
                               {ws.sorted_val.data() + off, cnt * sizeof(T)});
    }
    ctx.compute(2 * m, Cat::Copy);
    finj.corrupt(ws.sorted.data(), m * sizeof(std::uint64_t), ctx.epoch(),
                 me, /*tag=*/1);
    finj.corrupt(ws.sorted_val.data(), m * sizeof(T), ctx.epoch(), me,
                 /*tag=*/2);
  }
  {
    pgas::TraceScope ts(ctx, scope);
    ctx.publish(kSlotIdx, ws.sorted.data());
    if (reply)
      ctx.publish(kSlotData, ws.reply.data());
    else
      ctx.publish(kSlotVal, ws.sorted_val.data());
    if (wire.sum != 0) {
      if (reply) ws.sums.assign(s, 0);
      ctx.publish(kSlotSum, ws.sums.data());
    }
    write_matrices(ctx, cc, ws.thr_off, opt);
  }
  ctx.exchange_barrier();
}

/// Per-element op cost of touching the local portion of a shared array,
/// depending on the `localcpy` optimization.
inline std::size_t local_touch_ops(const CollectiveOptions& opt) {
  return opt.localcpy ? kPrivatePtrOps : kSharedPtrOps;
}

/// The owner's partition of D an owner walk maps requests into (GetD,
/// SetD*).  Stream ingest walks without one (NoBlock): its owners apply to
/// hash stores, not array blocks.
template <class T>
struct OwnerBlock {
  pgas::GlobalArray<T>& D;
  std::size_t sub_blk;  ///< virtual sub-block: caps the reuse working set
  /// A guarded wild index is skipped (SetD*: never apply a corruption-
  /// derived write) instead of served from local slot 0 (GetD: the reply
  /// is garbage either way and the epoch is about to be rolled back).
  bool skip_wild;
};
struct NoBlock {};

/// Owner walk (steps 4-5 of Algorithm 2): this thread, as owner, visits
/// every requester's batch in the exchange-loop order (circular when
/// enabled) after the 2*s*8 B read of its SMatrix/PMatrix rows.  Each
/// remote batch is one coalesced message per direction (`wire`), or, when
/// hierarchical, folded into one combined message per remote node, posted
/// to the node's live leader after the walk.
///
/// With an OwnerBlock the walk maps every request index into the owner's
/// partition and calls fn(global index, local element, peer element); the
/// peer element is the requester's reply slot (GetD) or value word
/// (SetD*).  It runs the owner half of the checksum protocol — validate a
/// sealed request batch before touching it, deposit a reply batch's sum
/// after — and charges each batch's Copy traffic off a line-granular
/// first-touch bitmap.  With NoBlock it calls fn(j, off, cnt) per batch.
template <class T, class Block, class Fn>
void owner_walk(pgas::ThreadCtx& ctx, CollectiveContext& cc,
                const CollectiveOptions& opt, const Wire& wire,
                CollWorkspace<T>& ws, const Block& blk, Fn&& fn) {
  constexpr bool kBlock = !std::is_same_v<Block, NoBlock>;
  const int s = ctx.nthreads();
  const int me = ctx.id();
  const bool reply = wire.reply_rec != 0;
  const auto srow = cc.smatrix.local_span(me);
  const auto prow = cc.pmatrix.local_span(me);
  ctx.mem_seq(2 * static_cast<std::size_t>(s) * sizeof(std::uint64_t),
              Cat::Setup);
  // Global -> local mapping of this owner's partition: subtracting the
  // span base IS the map for identity layouts (block, degree-aware); the
  // policy computes it otherwise.  `base` is only meaningful when `ident`.
  std::span<T> myblock;
  const partition::Partitioning* P = nullptr;
  bool ident = false;
  std::uint64_t base = 0;
  // Under an armed mem-flip plan a flipped label bit can escape into a
  // request index before the scrubber runs; bounds-guard the walk so the
  // epoch survives to be rolled back instead of faulting on a wild access
  // (docs/ROBUSTNESS.md, "At-rest integrity").
  bool guard = false;
  const std::size_t line_bytes = ctx.mem().params().cache_line_bytes;
  const std::size_t line_elems =
      std::max<std::size_t>(1, line_bytes / sizeof(T));
  std::size_t distinct_lines = 0;
  if constexpr (kBlock) {
    myblock = blk.D.local_span(me);
    P = &blk.D.part();
    ident = P->is_identity();
    base = blk.D.block_begin(me);
    guard = ctx.runtime().mem_guard_active();
    const std::size_t nlines = myblock.size() / line_elems + 1;
    ws.touched.assign((nlines + 63) / 64, 0);
    ctx.mem_seq(ws.touched.size() * 8, Cat::Copy);
  }
  if (opt.hierarchical)
    ws.node_bytes.assign(static_cast<std::size_t>(ctx.nnodes()), 0);

  for (int step = 0; step < s; ++step) {
    const int j = opt.circular ? (me + step) % s : step;  // visit order
    const std::size_t cnt = srow[static_cast<std::size_t>(j)];
    if (cnt == 0) continue;
    const std::size_t off = prow[static_cast<std::size_t>(j)];
    if (j != me) {
      const std::size_t req = cnt * wire.req_rec;
      const std::size_t rep = cnt * wire.reply_rec;
      if (opt.hierarchical) {
        ws.node_bytes[static_cast<std::size_t>(ctx.topo().node_of(j))] +=
            req + rep + wire.sum;
      } else if (wire.reply_rec == 0) {
        ctx.post_exchange_msg(j, req + wire.sum);
      } else {
        ctx.post_exchange_msg(j, req);             // indices in
        ctx.post_exchange_msg(j, rep + wire.sum);  // data out
      }
    }
    if constexpr (!kBlock) {
      fn(j, off, cnt);
    } else {
      std::uint64_t* ridx = ctx.peer_as<std::uint64_t>(j, kSlotIdx) + off;
      T* peer = ctx.peer_as<T>(j, reply ? kSlotData : kSlotVal) + off;
      if (wire.sum != 0 && !reply) {
        // A corrupted index must never be dereferenced: validate first; a
        // damaged batch is repaired by a retransmission from requester j.
        ctx.compute(2 * cnt, Cat::Copy);
        retransmit(ctx, ctx.peer_as<std::uint64_t>(j, kSlotSum)[me],
                   {ridx, cnt * sizeof(std::uint64_t)},
                   {peer, cnt * sizeof(T)}, /*check_ops=*/2 * cnt,
                   "setd: request batch unrecoverable");
      }
      std::size_t first = 0;
      for (std::size_t k = 0; k < cnt; ++k) {
        std::uint64_t ri = ridx[k];
        // A wild ri underflows li past the size check on the identity
        // path (unsigned wrap); non-identity layouts also need the owner
        // check — a foreign index can map to an in-range local slot.
        std::uint64_t li = ident ? ri - base : P->local_of(ri);
        if (guard && (li >= myblock.size() ||
                      (!ident && P->owner_of(ri) != me))) [[unlikely]] {
          ctx.runtime().note_corruption();
          if (blk.skip_wild) continue;
          ri = P->global_of(me, 0);
          li = 0;
        }
        assert(li < myblock.size() && (ident || P->owner_of(ri) == me));
        const std::size_t l = li / line_elems;
        if (!(ws.touched[l >> 6] & (1ull << (l & 63)))) {
          ws.touched[l >> 6] |= 1ull << (l & 63);
          ++first;
        }
        fn(ri, myblock[li], peer[k]);
      }
      if (wire.sum != 0 && reply) {
        // Deposit the reply batch's checksum into the requester's sum
        // array (slot indexed by owner), validated after the exchange.
        ctx.peer_as<std::uint64_t>(j, kSlotSum)[me] =
            batch_sum({peer, cnt * sizeof(T)});
        ctx.compute(cnt, Cat::Copy);
      }
      // Streamed read of the incoming batch; compulsory line fills for
      // first touches; reuse accesses over the effective working set (the
      // sub-block, or the touched footprint if smaller — duplicated
      // requests stay cached).
      distinct_lines += first;
      ctx.mem_seq(cnt * wire.req_rec, Cat::Copy);
      ctx.mem_compulsory(first, sizeof(T), Cat::Copy);
      const std::size_t ws_eff =
          std::min(blk.sub_blk * sizeof(T), distinct_lines * line_bytes);
      ctx.mem_random(cnt - first, ws_eff, sizeof(T), Cat::Copy);
      ctx.compute(cnt * local_touch_ops(opt), Cat::Copy);
    }
  }
  if (opt.hierarchical) {
    // One combined message per node pair, visited in circular node order.
    // Targets resolve through the live leader map so a post-shrink run
    // addresses the buddy that adopted a lost node's threads; a dead node
    // accumulates no bytes (node_of never maps a thread to it).
    const int p = ctx.nnodes();
    for (int step = 0; step < p; ++step) {
      const int nd = (ctx.node() + step) % p;
      if (ws.node_bytes[static_cast<std::size_t>(nd)] > 0)
        ctx.post_exchange_msg(ctx.topo().leader_of_node(nd),
                              ws.node_bytes[static_cast<std::size_t>(nd)]);
    }
  }
}

}  // namespace pgraph::coll::detail
