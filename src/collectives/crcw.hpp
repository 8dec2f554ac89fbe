#pragma once

#include "analysis/access_checker.hpp"
#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::coll {

/// The CRCW conflict-resolution rules the collectives implement (Section
/// III of the paper: SetD is arbitrary CRCW, SetDMin is priority CRCW).
enum class CrcwMode {
  Overwrite,  ///< arbitrary: one concurrent writer wins
  Min,        ///< priority: the minimum value wins
  Add,        ///< combining: concurrent writes sum (SetDAdd)
};

inline analysis::AccessKind to_access_kind(CrcwMode m) {
  constexpr analysis::AccessKind kKinds[] = {
      analysis::AccessKind::CombineOverwrite, analysis::AccessKind::CombineMin,
      analysis::AccessKind::CombineAdd};
  return kKinds[static_cast<int>(m)];
}

inline const char* crcw_trace_label(CrcwMode m) {
  constexpr const char* kLabels[] = {"crcw.overwrite", "crcw.min",
                                     "crcw.add"};
  return kLabels[static_cast<int>(m)];
}

/// RAII annotation telling the access checker that writes to `a` are
/// resolved by `mode` until the region closes — the declared-benign CRCW
/// window of the access discipline.  Every SPMD thread opens its own
/// region (the window is refcounted), so a region can span barriers and
/// threads can enter/leave it at slightly different times.
///
/// Inside a region:
///  - plain writes (put / store_relaxed) to `a` are treated as combining
///    writes of `mode`, and
///  - note(i) records an owner-side combine applied through a raw local
///    pointer, making it visible to the race detector.
///
/// The checker side is a no-op unless the build defines
/// PGRAPH_CHECK_ACCESS.  The window boundaries are additionally reported
/// to an attached trace sink (in any build), so traces show exactly where
/// declared-benign CRCW windows opened and closed on each thread's
/// modeled clock.
template <class T>
class CrcwRegion {
 public:
  CrcwRegion(pgas::GlobalArray<T>& a, CrcwMode mode)
      : a_(&a), kind_(to_access_kind(mode)), label_(crcw_trace_label(mode)) {
    a_->checker_begin_crcw(kind_);
    if (pgas::ThreadCtx* c = pgas::current_ctx())
      c->runtime().trace_crcw(label_, true);
  }
  ~CrcwRegion() {
    if (pgas::ThreadCtx* c = pgas::current_ctx())
      c->runtime().trace_crcw(label_, false);
    a_->checker_end_crcw();
  }

  CrcwRegion(const CrcwRegion&) = delete;
  CrcwRegion& operator=(const CrcwRegion&) = delete;

  /// Record the combining write the owner just applied to element i.
  void note(pgas::ThreadCtx& ctx, std::size_t i) {
    a_->note_combine(ctx, i, kind_);
  }

 private:
  pgas::GlobalArray<T>* a_;
  analysis::AccessKind kind_;
  const char* label_;
};

}  // namespace pgraph::coll
