// Clocks, order statistics and the span recorder the benchmark program
// uses.  Everything here is host-side and single-threaded: spans are
// recorded by the benchmark around calls into the engine, never from inside
// an SPMD region.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by every thread of the process so far.
inline double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median of a sample (mean of the two middle values when even).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile, q in (0, 1].  Infinite entries sort last, so a
/// refused request placed there as +inf counts as missing every limit.
inline double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One recorded interval.  `parent` indexes the enclosing span (-1 at the
/// root); `id` is the serve request index for `serve.offer` and -1
/// elsewhere; `flush_lo`/`flush_hi` are the serve flush ids the call
/// executed (equal when it ran none).
struct Span {
  const char* name = "";
  double t0 = 0.0;
  double t1 = 0.0;
  std::int64_t parent = -1;
  std::int64_t id = -1;
  std::uint64_t flush_lo = 0;
  std::uint64_t flush_hi = 0;
};

/// In-memory span recorder.  Disabled, `Scope` costs one branch and
/// records nothing, so the untraced rounds time the same code path.
class Tracer {
 public:
  bool enabled = false;
  std::vector<Span> spans;

  class Scope {
   public:
    Scope(Tracer& tr, const char* name, std::int64_t id = -1) : tr_(tr) {
      if (!tr_.enabled) return;
      idx_ = static_cast<std::int64_t>(tr_.spans.size());
      tr_.spans.push_back({name, wall_now(), 0.0, tr_.open_, id, 0, 0});
      tr_.open_ = idx_;
    }
    ~Scope() {
      if (idx_ < 0) return;
      Span& s = tr_.spans[static_cast<std::size_t>(idx_)];
      s.t1 = wall_now();
      tr_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Annotate the span with the serve flushes it executed.
    void flushes(std::uint64_t lo, std::uint64_t hi) {
      if (idx_ < 0) return;
      tr_.spans[static_cast<std::size_t>(idx_)].flush_lo = lo;
      tr_.spans[static_cast<std::size_t>(idx_)].flush_hi = hi;
    }

   private:
    Tracer& tr_;
    std::int64_t idx_ = -1;
  };

  /// Self time of every span: its duration minus the part its direct
  /// children cover (children never overlap; the recorder is sequential).
  std::vector<double> self_times() const {
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
      self[i] = spans[i].t1 - spans[i].t0;
    for (const Span& s : spans)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
    return self;
  }

 private:
  std::int64_t open_ = -1;
};

}  // namespace perfbench
