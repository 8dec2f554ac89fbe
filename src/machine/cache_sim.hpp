#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pgraph::machine {

/// Trace-driven set-associative LRU cache simulator.
///
/// This is the *validation* substrate for the analytic MemoryModel: the
/// access-scheduling tests and bench/abl04 replay the exact address traces
/// produced by Algorithm 1 (grouped accesses) and by the original code
/// (random accesses) through this simulator and compare the measured miss
/// counts against the model's expectations (equations 4/5 of the paper).
///
/// LRU is maintained per set with an age counter per line; associativity is
/// small (<= 16) so the linear scans are cheap.
class CacheSim {
 public:
  /// `size_bytes` total capacity, `line_bytes` block size (power of two),
  /// `assoc` ways per set.
  CacheSim(std::size_t size_bytes, std::size_t line_bytes, std::size_t assoc);

  /// Simulate an access to byte address `addr`; returns true on hit.
  bool access(std::uint64_t addr);

  /// Simulate a sequential run of `bytes` starting at `addr` (touches each
  /// line once).
  void access_range(std::uint64_t addr, std::size_t bytes);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }
  double miss_rate() const {
    return accesses() == 0 ? 0.0
                           : static_cast<double>(misses_) /
                                 static_cast<double>(accesses());
  }

  std::size_t size_bytes() const { return size_bytes_; }
  std::size_t line_bytes() const { return line_bytes_; }
  std::size_t num_sets() const { return sets_; }
  std::size_t associativity() const { return assoc_; }

  /// Clear contents and counters.
  void reset();
  /// Clear counters only (keep cache contents warm).
  void reset_counters();

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t age = 0;
    bool valid = false;
  };

  std::size_t size_bytes_;
  std::size_t line_bytes_;
  std::size_t assoc_;
  std::size_t sets_;
  unsigned line_shift_;
  std::vector<Line> lines_;  // sets_ * assoc_, set-major
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace pgraph::machine
