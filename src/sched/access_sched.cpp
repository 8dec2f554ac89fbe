#include "sched/access_sched.hpp"

#include <algorithm>
#include <cassert>

#include "sched/count_sort.hpp"

namespace pgraph::sched {

namespace {

constexpr std::size_t kWord = sizeof(std::uint64_t);

void charge_sort(const machine::MemoryModel* mem, SchedCost* cost,
                 std::size_t m, std::size_t w) {
  if (!mem || !cost) return;
  // Count sort: two streaming passes over the m requests plus two passes
  // over the W-entry histogram (Section IV: 2L_M + m/B_M + 2W(L_M + 1/B_M)).
  cost->sort_ns += 2.0 * mem->seq_ns(m * kWord) +
                   mem->random_ns(2 * w, w * kWord, kWord);
}

void charge_block_moves(const machine::MemoryModel* mem, SchedCost* cost,
                        std::size_t m, std::size_t w) {
  if (!mem || !cost) return;
  // Routing requests to match the blocks: W block transfers, m elements.
  cost->sort_ns += static_cast<double>(w) * mem->seq_ns(0) +
                   mem->seq_ns(m * kWord) - mem->seq_ns(0);
}

/// Recursive core.  `dbase` is D's offset within the original array (only
/// used for tracing absolute indices).
void gather_rec(std::span<const std::uint64_t> D,
                std::span<const std::uint64_t> R,  // indices relative to D
                std::span<std::uint64_t> C,
                std::span<const std::size_t> ws, std::uint64_t dbase,
                const machine::MemoryModel* mem, SchedCost* cost,
                AccessTrace* trace) {
  const std::size_t n = D.size();
  const std::size_t m = R.size();
  if (m == 0) return;

  if (ws.empty() || n <= 1 || ws.front() <= 1) {
    // Base case: direct access over this (hopefully cache-sized) block.
    for (std::size_t i = 0; i < m; ++i) {
      assert(R[i] < n);
      C[i] = D[R[i]];
      if (trace) trace->push_back(dbase + R[i]);
    }
    if (mem && cost) cost->access_ns += mem->random_ns(m, n * kWord, kWord);
    return;
  }

  const std::size_t w = std::min(ws.front(), n);
  const std::size_t blk = (n + w - 1) / w;

  // --- group: sort requests by target block, rebased to it, remembering
  // original slots.
  const auto block_of = [&](std::size_t i) {
    return static_cast<std::size_t>(R[i] / blk);
  };
  std::vector<std::size_t> off, cursor;
  count_sort_offsets(m, w, block_of, off);
  std::vector<std::uint64_t> local(m);
  std::vector<std::uint32_t> rank(m);
  count_sort_scatter(
      m, block_of,
      [&](std::size_t i, std::size_t pos) {
        local[pos] = R[i] % blk;
        rank[pos] = static_cast<std::uint32_t>(i);
      },
      off, cursor);
  charge_sort(mem, cost, m, w);
  charge_block_moves(mem, cost, m, w);

  // --- access: serve each block's requests together (recursively).
  std::vector<std::uint64_t> gathered(m);
  for (std::size_t k = 0; k < w; ++k) {
    const std::size_t lo = off[k], hi = off[k + 1];
    if (lo == hi) continue;
    const std::size_t dlo = k * blk;
    const std::size_t dhi = std::min(dlo + blk, n);
    gather_rec(D.subspan(dlo, dhi - dlo),
               std::span<const std::uint64_t>(local).subspan(lo, hi - lo),
               std::span<std::uint64_t>(gathered).subspan(lo, hi - lo),
               ws.subspan(1), dbase + dlo, mem, cost, trace);
  }

  // --- permute: put values back into request order.
  for (std::size_t j = 0; j < m; ++j) C[rank[j]] = gathered[j];
  if (mem && cost) cost->permute_ns += mem->random_ns(m, m * kWord, kWord);
}

}  // namespace

void scheduled_gather(std::span<const std::uint64_t> D,
                      std::span<const std::uint64_t> R,
                      std::span<std::uint64_t> C,
                      std::span<const std::size_t> ws,
                      const machine::MemoryModel* mem, SchedCost* cost,
                      AccessTrace* trace) {
  assert(C.size() == R.size());
  gather_rec(D, R, C, ws, 0, mem, cost, trace);
}

void direct_gather(std::span<const std::uint64_t> D,
                   std::span<const std::uint64_t> R,
                   std::span<std::uint64_t> C,
                   const machine::MemoryModel* mem, SchedCost* cost,
                   AccessTrace* trace) {
  assert(C.size() == R.size());
  for (std::size_t i = 0; i < R.size(); ++i) {
    assert(R[i] < D.size());
    C[i] = D[R[i]];
    if (trace) trace->push_back(R[i]);
  }
  if (mem && cost)
    cost->access_ns += mem->random_ns(R.size(), D.size() * kWord, kWord);
}

void scheduled_scatter(std::span<std::uint64_t> D,
                       std::span<const std::uint64_t> R,
                       std::span<const std::uint64_t> V,
                       std::span<const std::size_t> ws,
                       const machine::MemoryModel* mem, SchedCost* cost,
                       AccessTrace* trace) {
  assert(R.size() == V.size());
  const std::size_t m = R.size();
  if (m == 0) return;
  if (ws.empty() || ws.front() <= 1 || D.size() <= 1) {
    for (std::size_t i = 0; i < m; ++i) {
      assert(R[i] < D.size());
      D[R[i]] = V[i];
      if (trace) trace->push_back(R[i]);
    }
    if (mem && cost)
      cost->access_ns += mem->random_ns(m, D.size() * kWord, kWord);
    return;
  }

  const std::size_t w = std::min(ws.front(), D.size());
  const std::size_t blk = (D.size() + w - 1) / w;

  // Group (index, value) pairs by target block, rebased to it; write block
  // by block.  The count sort is stable, so original order within a block
  // is preserved and last-writer-wins semantics match the unscheduled
  // scatter.
  const auto block_of = [&](std::size_t i) {
    return static_cast<std::size_t>(R[i] / blk);
  };
  std::vector<std::size_t> off, cursor;
  count_sort_offsets(m, w, block_of, off);
  std::vector<std::uint64_t> rs(m), vs(m);
  count_sort_scatter(
      m, block_of,
      [&](std::size_t i, std::size_t pos) {
        rs[pos] = R[i] % blk;
        vs[pos] = V[i];
      },
      off, cursor);
  charge_sort(mem, cost, m, w);

  for (std::size_t k = 0; k < w; ++k) {
    const std::size_t lo = off[k], hi = off[k + 1];
    if (lo == hi) continue;
    const std::size_t dlo = k * blk;
    const std::size_t dhi = std::min(dlo + blk, D.size());
    scheduled_scatter(D.subspan(dlo, dhi - dlo),
                      std::span<const std::uint64_t>(rs).subspan(lo, hi - lo),
                      std::span<const std::uint64_t>(vs).subspan(lo, hi - lo),
                      ws.subspan(1), mem, cost, trace);
  }
}

}  // namespace pgraph::sched
