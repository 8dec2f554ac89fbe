#include "core/superstep_driver.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "pgas/replica.hpp"

namespace pgraph::core {

using machine::Cat;

namespace {

int resolve_max_iters(int max_iters, std::size_t n) {
  if (max_iters > 0) return max_iters;
  return 4 * (n < 2 ? 1 : static_cast<int>(std::bit_width(n))) + 64;
}

bool checkpointing(const fault::FaultInjector* finj) {
  return finj != nullptr &&
         (finj->config().outage_every > 0 || finj->config().loss_enabled() ||
          finj->config().mem_flips_enabled());
}

}  // namespace

SuperstepDriver::SuperstepDriver(pgas::Runtime& rt,
                                 pgas::GlobalArray<std::uint64_t>& d,
                                 int max_iters, int scrub_interval)
    : rt_(rt),
      d_(d),
      finj_(rt.fault_injector()),
      max_iters_(resolve_max_iters(max_iters, d.size())),
      scrub_every_(scrub_interval),
      ckpt_on_(checkpointing(rt.fault_injector())) {
  if (scrub_every_ > 0) d_.set_scrubbed(true);
}

void SuperstepDriver::run(pgas::ThreadCtx& ctx, const SuperstepKernel& k) {
  const int me = ctx.id();
  // This thread's checkpoint of its label block; the kernel keeps the
  // matching snapshot of its private state.
  std::vector<std::uint64_t> ck_d;
  int ck_it = 0;
  bool ck_valid = false;
  // Staging buffer for scrub-verified checkpoint saves (see below).
  std::vector<std::uint64_t> ck_stage;
  std::uint64_t seen_recovery = ckpt_on_ ? finj_->recovery_events() : 0;

  int it = 0;
  for (int executed = 0;; ++it, ++executed) {
    if (it >= max_iters_ || executed >= 4 * max_iters_ + 64) {
      overran_.store(true, std::memory_order_relaxed);
      break;
    }

    bool scrubbed_now = false;
    if (scrub_every_ > 0 && executed % scrub_every_ == 0) {
      scrubbed_now = true;
      try {
        rt_.scrub(ctx);
      } catch (const fault::FaultError& fe) {
        // Corruption with no validated mirror: the baseline is invalidated
        // and a recovery event raised; continue on the valid checkpoint
        // (the poll below rolls back over clean bytes).  Without a
        // checkpoint the corruption is fatal.
        if (fe.kind() != fault::FaultKind::MemoryCorrupt || !ck_valid) throw;
      }
    }

    bool fresh_ckpt = false;
    if (ckpt_on_) {
      const std::uint64_t ev_now = finj_->recovery_events();
      if (ev_now != seen_recovery && ck_valid) {
        // The recent superstep work is suspect: every thread rolls back to
        // the last snapshot and re-runs over the surviving topology.
        auto blk = d_.local_span(me);
        std::copy(ck_d.begin(), ck_d.end(), blk.begin());
        const std::size_t words = k.restore();
        it = ck_it;
        ctx.mem_seq((ck_d.size() + words) * sizeof(std::uint64_t), Cat::Copy);
        // The restore bypassed the incremental checksum: recompute the
        // scrub baseline over the freshly restored block.
        rt_.rebaseline_integrity(ctx);
        if (me == 0) finj_->count_rollback();
        ctx.barrier();  // restores visible before the next getd serves
      } else if (ev_now == seen_recovery &&
                 !finj_->outage_active(ctx.epoch()) &&
                 (scrub_every_ == 0 || scrubbed_now)) {
        // With scrubbing on, only scrub-validated trips may seal new
        // checkpoints/mirrors: a flip is always *detected* before the
        // corrupt bytes could be re-snapshotted into the repair source.
        auto blk = d_.local_span(me);
        bool seal_ok = true;
        if (scrub_every_ > 0) {
          // Verify-before-seal: a flip can land on the scrub pass's own
          // barriers, after the compare but before this save.  Stage the
          // copy and re-check it against the maintained checksum in the
          // SAME barrier interval (flips only land at barrier completion,
          // so a verified stage is a clean stage), then agree collectively
          // before committing it over the old snapshot.
          ck_stage.assign(blk.begin(), blk.end());
          if (!d_.partition_clean(me)) rt_.note_corruption();
          ctx.mem_seq(blk.size() * sizeof(std::uint64_t), Cat::Scrub);
          ctx.barrier();  // corruption flag -> recovery event, seen by all
          seal_ok = finj_->recovery_events() == ev_now;
        }
        if (seal_ok) {
          if (scrub_every_ > 0)
            ck_d.swap(ck_stage);
          else
            ck_d.assign(blk.begin(), blk.end());
          const std::size_t words = k.save();
          ck_it = it;
          ck_valid = true;
          ctx.mem_seq((ck_d.size() + words) * sizeof(std::uint64_t),
                      Cat::Copy);
          if (me == 0) finj_->count_checkpoint();
          fresh_ckpt = true;
        }
      }
      seen_recovery = ev_now;
    }

    try {
      // Buddy replication rides on checkpoint boundaries: mirror the fresh
      // snapshot's GlobalArray partitions onto each node's predecessor
      // (no-op unless a loss or mem-flip plan is configured).
      if (fresh_ckpt) pgas::replicate_to_buddy(ctx);
      if (!k.step()) break;
    } catch (const fault::FaultError& fe) {
      // A permanent node loss surfaced collectively: the runtime already
      // promoted the buddy's mirrors and shrank the topology.  A
      // mid-superstep label array (e.g. partway through pointer jumping)
      // must not be continued, only rolled back (loop top); without a
      // checkpoint the loss is unrecoverable.
      if (fe.kind() != fault::FaultKind::PermanentLoss || !ck_valid) throw;
    }
  }
  if (me == 0) iterations_.store(it + 1, std::memory_order_relaxed);
}

void SuperstepDriver::check_bound(const char* kernel) const {
  if (overran_.load())
    throw std::runtime_error(std::string(kernel) +
                             ": exceeded iteration bound");
}

}  // namespace pgraph::core
