#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace pgraph::sched {

/// Key value that leaves an item out of a counting sort entirely.
inline constexpr std::size_t kDropped = ~std::size_t{0};

/// Stable counting sort of the items 0..m-1 by small integer keys, in two
/// passes so the caller can size its outputs between them.
///
///  1. count_sort_offsets: histogram `key(i)` (in [0, nbuckets), or
///     kDropped to leave item i out) into `bucket_off` (nbuckets+1
///     entries; bucket k occupies [bucket_off[k], bucket_off[k+1])) and
///     return how many items are kept.
///  2. count_sort_scatter: call `emit(i, pos)` for every kept item with its
///     sorted position; items of one bucket keep their input order.
///     `cursor` is scratch, reused across calls so the sort allocates
///     nothing in steady state.
///
/// The paper uses count sort inside the group phase because it is linear
/// time and its histogram (size W) fits in cache; quick sort was measured
/// >50x slower in the same role (Section IV).  This is the tree's one count
/// sort: the collectives' route stage, the GetD output-blocked permute, the
/// sequential access scheduler and the CSR / arc-adjacency builds all run
/// on it.
template <class KeyFn>
std::size_t count_sort_offsets(std::size_t m, std::size_t nbuckets, KeyFn key,
                               std::vector<std::size_t>& bucket_off) {
  bucket_off.assign(nbuckets + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t k = key(i);
    if (k == kDropped) continue;
    assert(k < nbuckets);
    ++bucket_off[k + 1];
  }
  for (std::size_t k = 0; k < nbuckets; ++k)
    bucket_off[k + 1] += bucket_off[k];
  return bucket_off[nbuckets];
}

template <class KeyFn, class EmitFn>
void count_sort_scatter(std::size_t m, KeyFn key, EmitFn emit,
                        const std::vector<std::size_t>& bucket_off,
                        std::vector<std::size_t>& cursor) {
  cursor.assign(bucket_off.begin(), bucket_off.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t k = key(i);
    if (k == kDropped) continue;
    emit(i, cursor[k]++);
  }
}

}  // namespace pgraph::sched
