#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "machine/phase_stats.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::pgas {

/// Small value-based collectives built on the pointer registry.
///
/// Implementation is shared-memory (every thread reads its peers' published
/// values); cost is charged as a log2(s)-depth combining tree of small
/// messages, which is how a tuned PGAS runtime implements them.
///
/// Registry slot 7 is reserved for these collectives; algorithm code should
/// use slots 0..6.

inline constexpr int kCollSlot = 7;

namespace detail {
inline double tree_msg_cost_ns(ThreadCtx& ctx, std::size_t bytes) {
  const int s = ctx.nthreads();
  const int depth = s <= 1 ? 0 : std::bit_width(static_cast<unsigned>(s - 1));
  return depth * ctx.net().msg_wire_ns(bytes + 16);
}
}  // namespace detail

/// All-reduce `v` with `op` across all threads; every thread returns the
/// reduced value.  `op` must be associative and commutative.
template <class T, class Op>
T allreduce(ThreadCtx& ctx, T v, Op op,
            machine::Cat c = machine::Cat::Comm) {
  T local = v;  // keep alive across the barriers
  ctx.publish(kCollSlot, &local);
  ctx.barrier();
  T acc = *ctx.peer_as<T>(0, kCollSlot);
  for (int i = 1; i < ctx.nthreads(); ++i)
    acc = op(acc, *ctx.peer_as<T>(i, kCollSlot));
  ctx.charge(c, detail::tree_msg_cost_ns(ctx, sizeof(T)));
  ctx.compute(static_cast<std::size_t>(ctx.nthreads()), c);
  ctx.barrier();  // nobody reuses the slot until all have read
  return acc;
}

inline bool allreduce_or(ThreadCtx& ctx, bool v,
                         machine::Cat c = machine::Cat::Comm) {
  return allreduce(ctx, static_cast<int>(v),
                   [](int a, int b) { return a | b; }, c) != 0;
}

inline long long allreduce_sum(ThreadCtx& ctx, long long v,
                               machine::Cat c = machine::Cat::Comm) {
  return allreduce(ctx, v, [](long long a, long long b) { return a + b; }, c);
}

inline long long allreduce_max(ThreadCtx& ctx, long long v,
                               machine::Cat c = machine::Cat::Comm) {
  return allreduce(ctx, v,
                   [](long long a, long long b) { return a > b ? a : b; }, c);
}

/// Broadcast `v` from `root` to all threads.
template <class T>
T broadcast(ThreadCtx& ctx, int root, T v,
            machine::Cat c = machine::Cat::Comm) {
  T local = v;
  ctx.publish(kCollSlot, &local);
  ctx.barrier();
  T out = *ctx.peer_as<T>(root, kCollSlot);
  ctx.charge(c, detail::tree_msg_cost_ns(ctx, sizeof(T)));
  ctx.barrier();
  return out;
}

/// Exclusive prefix sum across threads by id; thread i receives the sum of
/// values of threads 0..i-1, and `total` (if non-null) receives the overall
/// sum on every thread.
template <class T>
T exscan_sum(ThreadCtx& ctx, T v, T* total = nullptr,
             machine::Cat c = machine::Cat::Comm) {
  T local = v;
  ctx.publish(kCollSlot, &local);
  ctx.barrier();
  T acc{};
  T all{};
  for (int i = 0; i < ctx.nthreads(); ++i) {
    const T x = *ctx.peer_as<T>(i, kCollSlot);
    if (i < ctx.id()) acc += x;
    all += x;
  }
  if (total != nullptr) *total = all;
  ctx.charge(c, detail::tree_msg_cost_ns(ctx, sizeof(T)));
  ctx.compute(static_cast<std::size_t>(ctx.nthreads()), c);
  ctx.barrier();
  return acc;
}

/// All-gather a variable-length contribution from every thread: `out`
/// receives the concatenation of all threads' `mine` in thread-id order, on
/// every thread.  Priced as one coalesced exchange phase: a thread ships its
/// contribution once to every other live node (that node's threads share
/// the landed buffer, and same-node peers read it in place), then streams
/// the gathered array.  The messages go through the exchange sweep, so
/// fault drops, retries and permanent loss behave as in any other exchange.
template <class T>
void allgatherv(ThreadCtx& ctx, std::span<const T> mine, std::vector<T>& out,
                machine::Cat c = machine::Cat::Comm) {
  std::span<const T> local = mine;  // keep alive across the barriers
  ctx.publish(kCollSlot, &local);
  if (!mine.empty()) {
    const int p = ctx.nnodes();
    for (int step = 1; step < p; ++step) {
      const int leader = ctx.topo().leader_of_node((ctx.node() + step) % p);
      if (leader >= 0) ctx.post_exchange_msg(leader, mine.size_bytes());
    }
  }
  ctx.exchange_barrier();
  out.clear();
  for (int i = 0; i < ctx.nthreads(); ++i) {
    const auto* part = ctx.peer_as<std::span<const T>>(i, kCollSlot);
    out.insert(out.end(), part->begin(), part->end());
  }
  ctx.mem_seq(out.size() * sizeof(T), c);
  ctx.barrier();  // nobody reuses the slot until all have read
}

}  // namespace pgraph::pgas
