#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "fault/fault.hpp"
#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::core {

/// One superstep kernel as the recovery driver sees it on one SPMD thread:
/// a body over the shared label array plus the thread's private state
/// (its edge lists, marked edges, ...), which a rollback must restore too.
struct SuperstepKernel {
  /// Run one superstep; false once the kernel has converged.
  std::function<bool()> step;
  /// Copy the private state into the kernel's checkpoint.  Returns the
  /// 8-byte words copied (charged together with the label block).
  std::function<std::size_t()> save;
  /// Roll the private state back to that checkpoint and drop any key
  /// caches that describe the discarded requests.  Returns the words
  /// copied.
  std::function<std::size_t()> restore;
};

/// The superstep loop of the checkpointing kernels (cc_coalesced,
/// mst_pgas) and every fault-recovery decision around it, in one place
/// (docs/ROBUSTNESS.md "Algorithm-level restart"):
///  - the iteration cap, plus a cap on real trips (`executed`, which does
///    not roll back) against pathological fault plans;
///  - a scrub pass every `scrub_interval` trips, BEFORE the recovery poll,
///    so a heal's regression to checkpoint-time bytes is rolled back over
///    at once;
///  - the recovery poll: a recovery event (outage window closed, shrink
///    after a permanent loss, scrub heal) rolls the label block and the
///    private state back to the last checkpoint and re-baselines the scrub
///    checksums;
///  - otherwise, outside an outage window (and on scrub-validated trips
///    only when scrubbing), a fresh checkpoint, verified before it is
///    sealed, followed by a buddy-replication pass;
///  - a PermanentLoss thrown out of the superstep: the runtime already
///    promoted the mirrors and shrank, so the loop rolls back at its top.
/// All threads checkpoint and roll back in lockstep: recovery events are
/// raised only in barrier completion steps and every thread polls them at
/// the same program point.
class SuperstepDriver {
 public:
  /// Host side, before the SPMD region.  `max_iters` 0 picks a bound from
  /// d.size(); `scrub_interval` > 0 opts `d` into at-rest integrity
  /// tracking and scrubs it every that many trips.
  SuperstepDriver(pgas::Runtime& rt, pgas::GlobalArray<std::uint64_t>& d,
                  int max_iters, int scrub_interval);

  /// SPMD, collectively on every thread: run `k` until it converges or the
  /// iteration cap is hit.
  void run(pgas::ThreadCtx& ctx, const SuperstepKernel& k);

  /// Host side, after the SPMD region: throws std::runtime_error naming
  /// `kernel` when the run hit the iteration cap.
  void check_bound(const char* kernel) const;
  /// Supersteps of the last run (index of the converging trip + 1).
  int iterations() const { return iterations_.load(); }

 private:
  pgas::Runtime& rt_;
  pgas::GlobalArray<std::uint64_t>& d_;
  fault::FaultInjector* const finj_;
  const int max_iters_;
  const int scrub_every_;
  /// Checkpointing is on whenever a fault plan can raise recovery events.
  const bool ckpt_on_;
  std::atomic<int> iterations_{0};
  std::atomic<bool> overran_{false};
};

}  // namespace pgraph::core
