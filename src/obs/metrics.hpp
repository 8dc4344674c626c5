// Unified metrics plane: named counters, render-time gauges and log-bucket
// latency histograms behind one registry, rendered as Prometheus text and
// served over the wire by the kMetricsRequest op.
//
// One counter store: registry counters are the only storage for counted
// events. Owners resolve their Counter* handles once at construction and
// only inc() them; the stats structs (BatchStats, PlanCacheStats,
// ServiceStats, ShardedBackendStats, FeedbackStats) are read views over the
// same counters. Live state an owner keeps under its own mutex reaches the
// page through gauge_fn callbacks, so no page depends on a publish step.
//
// Concurrency: handles are resolved under the registry mutex
// (LockRank::kObsRegistry, the highest rank) and are then plain atomics,
// lock-free from any thread; entries are never removed, so handles live as
// long as the registry. render() calls gauge callbacks after releasing the
// registry mutex, because they take their owners' lower-ranked locks.
//
// MSX_METRICS=0 turns histogram observation into a no-op and nothing else:
// counters stay on, because the stats views read them.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"

namespace msx::obs {

bool metrics_enabled();
void set_metrics_enabled(bool on);

// --- instruments ----------------------------------------------------------

// Monotonic event count. Relaxed: a reader that needs a count to include
// some event orders itself after it by other means (a joined thread, a
// mutex the incrementing thread released afterwards).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Log2-bucket latency histogram. observe_ns(v) lands in bucket
// bit_width(v) (bucket b covers [2^(b-1), 2^b - 1] ns; bucket 0 holds
// zeros), so the full uint64 nanosecond range fits in 65 fixed buckets
// and observation is two relaxed fetch_adds plus a bit_width. Quantiles
// report the upper bound of the bucket containing the requested rank —
// within 2x of the true value, which is the resolution log buckets buy.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void observe_ns(std::uint64_t nanos) {
    if (!metrics_enabled()) return;
    buckets_[std::bit_width(nanos)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(nanos, std::memory_order_relaxed);
  }
  void observe_seconds(double seconds) {
    if (seconds < 0) seconds = 0;
    observe_ns(static_cast<std::uint64_t>(seconds * 1e9));
  }

  std::uint64_t count() const;
  double sum_seconds() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e9;
  }
  // Upper bound (seconds) of the bucket holding rank ceil(q * count);
  // 0 when empty. q in [0, 1].
  double quantile(double q) const;
  // Inclusive upper bound of bucket b in nanoseconds (2^b - 1).
  static std::uint64_t bucket_upper_ns(std::size_t b) {
    return b >= 64 ? ~0ull : (1ull << b) - 1;
  }
  std::uint64_t bucket_count(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_ns_{0};
};

// --- registry -------------------------------------------------------------

// Keyed by (name, labels) where labels is a pre-formatted Prometheus label
// body, e.g. `shard="s0"` (no braces). Lookup interns the entry on first
// use and returns a stable handle.
class Registry {
 public:
  Counter* counter(const std::string& name, const std::string& labels = "");
  // A gauge evaluated at render time from live state (`fn` typically locks
  // its owner's mutex). Re-registering a series replaces its callback; the
  // callback's owner must outlive every render.
  void gauge_fn(const std::string& name, const std::string& labels,
                std::function<double()> fn);
  Histogram* histogram(const std::string& name,
                       const std::string& labels = "");

  // nullptr when the instrument was never created (benches probe this
  // after a run; tests assert absence in disabled mode).
  const Histogram* find_histogram(const std::string& name,
                                  const std::string& labels = "") const;

  // Prometheus text exposition. `extra_labels` (same format as `labels`)
  // is merged into every sample — how a shard stamps `shard="name"` onto
  // its executor's registry without coordinating at observe time.
  // Histograms render as summaries: {quantile="0.5|0.95|0.99"} samples
  // plus _sum and _count.
  std::string render(const std::string& extra_labels = "") const;

  // Process-wide registry (client-side request metrics, standalone
  // executors). Server components own private registries so in-process
  // shard fleets do not collide.
  static Registry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string labels;
    Kind kind;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Histogram> h;
    std::function<double()> fn;  // kGauge; guarded by the registry's mu_
  };

  // Interns the series; a non-empty `fn` (re)binds a gauge's callback.
  Entry* find_or_create(const std::string& name, const std::string& labels,
                        Kind kind, std::function<double()> fn = {});

  mutable Mutex mu_{LockRank::kObsRegistry, "obs::Registry::mu_"};
  // Insertion-ordered so rendered output is stable; linear lookup is fine
  // at the tens-of-instruments scale (handles are cached by callers).
  std::vector<std::unique_ptr<Entry>> entries_ MSX_GUARDED_BY(mu_);
};

}  // namespace msx::obs
