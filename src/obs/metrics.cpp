#include "obs/metrics.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/env.hpp"

namespace msx::obs {

namespace {

std::atomic<bool> g_metrics_enabled{env_int("MSX_METRICS", 1) != 0};

std::string merge_labels(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return a + "," + b;
}

void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, double value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, " %.9g\n", value);
  out += buf;
}

void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, std::uint64_t value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, " %" PRIu64 "\n", value);
  out += buf;
}

}  // namespace

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

// --- Histogram ------------------------------------------------------------

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::quantile(double q) const {
  std::array<std::uint64_t, kBuckets> snap;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    snap[b] = buckets_[b].load(std::memory_order_relaxed);
    total += snap[b];
  }
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     std::ceil(q * static_cast<double>(total))));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cum += snap[b];
    if (cum >= rank) {
      return static_cast<double>(bucket_upper_ns(b)) / 1e9;
    }
  }
  return static_cast<double>(bucket_upper_ns(kBuckets - 1)) / 1e9;
}

// --- Registry -------------------------------------------------------------

Registry::Entry* Registry::find_or_create(const std::string& name,
                                          const std::string& labels, Kind kind,
                                          std::function<double()> fn) {
  MutexLock lock(&mu_);
  Entry* found = nullptr;
  for (const auto& e : entries_) {
    if (e->name == name && e->labels == labels && e->kind == kind) {
      found = e.get();
      break;
    }
  }
  if (found == nullptr) {
    auto e = std::make_unique<Entry>();
    e->name = name;
    e->labels = labels;
    e->kind = kind;
    if (kind == Kind::kCounter) e->c = std::make_unique<Counter>();
    if (kind == Kind::kHistogram) e->h = std::make_unique<Histogram>();
    entries_.push_back(std::move(e));
    found = entries_.back().get();
  }
  if (fn) found->fn = std::move(fn);
  return found;
}

Counter* Registry::counter(const std::string& name,
                           const std::string& labels) {
  return find_or_create(name, labels, Kind::kCounter)->c.get();
}

void Registry::gauge_fn(const std::string& name, const std::string& labels,
                        std::function<double()> fn) {
  find_or_create(name, labels, Kind::kGauge, std::move(fn));
}

Histogram* Registry::histogram(const std::string& name,
                               const std::string& labels) {
  return find_or_create(name, labels, Kind::kHistogram)->h.get();
}

const Histogram* Registry::find_histogram(const std::string& name,
                                          const std::string& labels) const {
  MutexLock lock(&mu_);
  for (const auto& e : entries_) {
    if (e->name == name && e->labels == labels &&
        e->kind == Kind::kHistogram) {
      return e->h.get();
    }
  }
  return nullptr;
}

std::string Registry::render(const std::string& extra_labels) const {
  // Snapshot under mu_, render after releasing it: gauge callbacks take
  // their owners' mutexes, all ranked below kObsRegistry. An entry's
  // identity and instruments never change once created; only callbacks are
  // rebindable, so those are copied.
  std::vector<std::pair<const Entry*, std::function<double()>>> items;
  {
    MutexLock lock(&mu_);
    items.reserve(entries_.size());
    for (const auto& e : entries_) items.emplace_back(e.get(), e->fn);
  }
  std::string out;
  std::vector<std::string> typed;  // names with an emitted # TYPE line
  const auto emit_type = [&](const std::string& name, const char* type) {
    for (const auto& t : typed) {
      if (t == name) return;
    }
    typed.push_back(name);
    out += "# TYPE " + name + " " + type + "\n";
  };
  for (const auto& [e, fn] : items) {
    const std::string labels = merge_labels(e->labels, extra_labels);
    switch (e->kind) {
      case Kind::kCounter:
        emit_type(e->name, "counter");
        append_sample(out, e->name, labels, e->c->value());
        break;
      case Kind::kGauge:
        emit_type(e->name, "gauge");
        append_sample(out, e->name, labels, fn());
        break;
      case Kind::kHistogram: {
        emit_type(e->name, "summary");
        const Histogram& h = *e->h;
        append_sample(out, e->name,
                      merge_labels(labels, "quantile=\"0.5\""),
                      h.quantile(0.5));
        append_sample(out, e->name,
                      merge_labels(labels, "quantile=\"0.95\""),
                      h.quantile(0.95));
        append_sample(out, e->name,
                      merge_labels(labels, "quantile=\"0.99\""),
                      h.quantile(0.99));
        append_sample(out, e->name + "_sum", labels, h.sum_seconds());
        append_sample(out, e->name + "_count", labels, h.count());
        break;
      }
    }
  }
  return out;
}

Registry& Registry::global() {
  static Registry* reg = new Registry();  // immortal (shutdown-safe)
  return *reg;
}

}  // namespace msx::obs
