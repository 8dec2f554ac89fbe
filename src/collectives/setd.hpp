#pragma once

#include <cstdint>
#include <span>

#include "collectives/conformance_hook.hpp"
#include "collectives/crcw.hpp"
#include "collectives/pipeline.hpp"

namespace pgraph::coll {

/// Resolve one concurrent write of `v` into `dst` under the CRCW rule M:
///  - Overwrite (arbitrary): one writer wins — here the last applied in the
///    owner's deterministic peer order, so runs are reproducible;
///  - Min (priority): the minimum value wins — SetDMin, the collective the
///    paper introduces to remove MST's fine-grained locks;
///  - Add (combining): concurrent writes sum — the combining-network
///    semantics the streaming layer uses to accumulate component sizes.
template <CrcwMode M, class T>
void crcw_apply(T& dst, const T& v) {
  if constexpr (M == CrcwMode::Min) {
    if (v < dst) dst = v;
  } else if constexpr (M == CrcwMode::Add) {
    dst += v;
  } else {
    dst = v;
  }
}

/// Common kernel of SetD / SetDMin / SetDAdd: bulk concurrent write of
/// D[indices[i]] = values[i], resolved per element by the CRCW rule M, on
/// the shared route -> exchange -> owner-walk stages
/// (collectives/pipeline.hpp).
template <CrcwMode M, class T>
void setd_combine(pgas::ThreadCtx& ctx, pgas::GlobalArray<T>& D,
                  std::span<const std::uint64_t> indices,
                  std::span<const T> values, const CollectiveOptions& opt,
                  CollectiveContext& cc, CollWorkspace<T>& ws) {
  static_assert(sizeof(T) == 8 || sizeof(T) == 16,
                "collectives carry one- or two-word records");
  assert(values.size() == indices.size());

  const int me = ctx.id();
  const int tprime =
      detail::resolve_tprime(ctx, opt, D.part().max_local_size(), sizeof(T));
  const sched::VBlocks vb(D.part(), tprime);
#ifdef PGRAPH_CHECK_ACCESS
  conformance_note(ctx, crcw_coll_op(M), opt.site,
                   collective_sig(D.uid(), D.size(), sizeof(T),
                                  static_cast<int>(M), tprime, opt));
#endif
  // Checksum protocol (docs/ROBUSTNESS.md): the requester seals each
  // outgoing (index, value) batch with a checksum before it is exposed;
  // owners validate *before applying* — a corrupted index must never be
  // dereferenced — and re-request damaged batches at retransmission cost.
  const detail::Wire wire{sizeof(std::uint64_t) + sizeof(T), 0,
                          detail::sum_bytes(ctx)};

  // --- group: stable sort (index, value) pairs by virtual block ----------
  {
    pgas::TraceScope ts(ctx, "setd.group");
    detail::compute_keys(ctx, vb, indices, opt, ws.keys, ws.keys_valid);
    detail::route</*kRank=*/false>(
        ctx, vb, indices.size(), ws,
        [&](std::size_t i) { return std::size_t{ws.keys[i]}; },
        [&](std::size_t i) {
          return detail::Record<T>{indices[i], values[i]};
        });
  }

  // --- setup + exchange (sealing the batches under the fault protocol) ----
  detail::exchange(ctx, cc, opt, "setd.setup", wire, ws);

  // --- apply (owner side) ---------------------------------------------------
  // Declare the CRCW combine window: concurrent writes to D are resolved
  // by the rule M from here to the end of the collective, and each
  // applied element is noted so the race detector can see collisions with
  // stray same-epoch fine-grained traffic.
  CrcwRegion<T> crcw(D, M);
  {
    pgas::TraceScope ts(ctx, "setd.apply");
    // At-rest integrity: this walk is D's tracked commit point.  Once a
    // scrub pass baselined this partition, every applied element folds an
    // O(1) digest delta into the partition checksum (the old value is
    // already in cache for the combine, so the modeled cost is unchanged).
    const bool track = D.integrity_tracking_thread(me);
    detail::owner_walk(
        ctx, cc, opt, wire, ws,
        detail::OwnerBlock<T>{D, vb.sub_blk, /*skip_wild=*/true},
        [&](std::uint64_t ri, T& dst, const T& v) {
          if (track) {
            const T oldv = dst;
            crcw_apply<M>(dst, v);
            D.integrity_note(me, ri, oldv, dst);
          } else {
            crcw_apply<M>(dst, v);
          }
          crcw.note(ctx, ri);
        });
  }
  ctx.exchange_barrier();
}

/// SetD: arbitrary concurrent write.
template <class T>
void setd(pgas::ThreadCtx& ctx, pgas::GlobalArray<T>& D,
          std::span<const std::uint64_t> indices, std::span<const T> values,
          const CollectiveOptions& opt, CollectiveContext& cc,
          CollWorkspace<T>& ws) {
  setd_combine<CrcwMode::Overwrite>(ctx, D, indices, values, opt, cc, ws);
}

/// SetDMin: priority concurrent write (minimum wins).
template <class T>
void setd_min(pgas::ThreadCtx& ctx, pgas::GlobalArray<T>& D,
              std::span<const std::uint64_t> indices,
              std::span<const T> values, const CollectiveOptions& opt,
              CollectiveContext& cc, CollWorkspace<T>& ws) {
  setd_combine<CrcwMode::Min>(ctx, D, indices, values, opt, cc, ws);
}

/// SetDAdd: combining concurrent write (values sum).  The targets must be
/// pre-zeroed (or hold the running totals the caller wants to extend).
template <class T>
void setd_add(pgas::ThreadCtx& ctx, pgas::GlobalArray<T>& D,
              std::span<const std::uint64_t> indices,
              std::span<const T> values, const CollectiveOptions& opt,
              CollectiveContext& cc, CollWorkspace<T>& ws) {
  setd_combine<CrcwMode::Add>(ctx, D, indices, values, opt, cc, ws);
}

}  // namespace pgraph::coll
