#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <unordered_map>

#include "ledger.hpp"

namespace ledger {

// ---- metric catalogue -----------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"p50_ms", "ms"},
      {"tail_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"apps.tc.kernel_share", "ratio"},
      {"apps.ktruss.kernel_share", "ratio"},
      {"apps.bc.forward_share", "ratio"},
      {"core.tc.gflops", "GFLOP/s"},
      {"core.ktruss.gflops", "GFLOP/s"},
      {"core.tc.computed_gbps", "GB/s"},
      {"trace.phase.symbolic.share", "ratio"},
      {"trace.phase.numeric.share", "ratio"},
      {"trace.phase.bound.share", "ratio"},
      {"trace.phase.compact.share", "ratio"},
      {"trace.delta.apply.self_us", "us"},
      {"runtime.plan_cache_hit_rate", "ratio"},
      {"runtime.delta_migrations_per_update", "ratio"},
      {"trace.exec.queue.p50_us", "us"},
      {"trace.exec.run.self_us", "us"},
      {"trace.client.submit.self_us", "us"},
      {"client.update.p50_us", "us"},
      {"client.update.tail_us", "us"},
      {"trace.wire.send.self_us", "us"},
      {"trace.shard.request.self_us", "us"},
      {"service.bytes_per_req", "B"},
      {"service.retries_per_1k", "count"},
      {"service.route_imbalance", "ratio"},
      {"trace.2d.scatter.self_us", "us"},
      {"trace.2d.merge.self_us", "us"},
      {"distributed.panel_spread", "ratio"},
      {"distributed.panels_per_product", "count"},
      {"ledger.stateless_us", "us"},
      {"ledger.plan_us", "us"},
      {"ledger.executor_us", "us"},
      {"ledger.local_us", "us"},
      {"ledger.sharded1_us", "us"},
      {"ledger.sharded2_us", "us"},
      {"ledger.plan_setup_us", "us"},
      {"ledger.runtime_added_us", "us"},
      {"ledger.client_added_us", "us"},
      {"ledger.wire_added_us", "us"},
      {"ledger.fanout_added_us", "us"},
      {"ledger2d.plan_ms", "ms"},
      {"ledger2d.sharded1_ms", "ms"},
      {"ledger2d.grid_ms", "ms"},
      {"proc.cpu_ms_per_op", "ms"},
      {"proc.ctx_switches_per_op", "count"},
      {"obs.trace_overhead", "ratio"},
      {"trace.unattributed_share", "ratio"},
      {"trace.accounted_ratio", "ratio"},
  };
  return defs;
}

namespace {

bool in_catalogue(const std::vector<MetricDef>& defs, const std::string& n) {
  for (const auto& d : defs) {
    if (n == d.name) return true;
  }
  return false;
}

void print_defs(const std::vector<MetricDef>& defs) {
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i ? ", " : "",
                defs[i].name, defs[i].unit);
  }
}

}  // namespace

void Outcome::set(const std::string& name, double value) {
  if (!in_catalogue(end_to_end_metrics(), name) &&
      !in_catalogue(per_layer_metrics(), name)) {
    std::fprintf(stderr, "msx_ledger: metric %s is not in the catalogue\n",
                 name.c_str());
    std::abort();
  }
  values[name] = value;
}

void Outcome::check(bool ok, const char* what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::printf("MISMATCH: %s\n", what);
  }
}

void print_result(const Outcome& out, bool trace) {
  const auto& defs = trace ? per_layer_metrics() : end_to_end_metrics();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = out.values.find(defs[i].name);
    // A layer the workload never enters reads 0; an end-to-end metric is
    // always set by the workload.
    const double v = it == out.values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", defs[i].name);
    if (std::isfinite(v)) {
      std::printf("%.17g", v);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_catalogue() {
  std::printf("{\"end_to_end\": [");
  print_defs(end_to_end_metrics());
  std::printf("], \"per_layer\": [");
  print_defs(per_layer_metrics());
  std::printf("]}\n");
}

// ---- statistics -------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

// ---- driver spans ---------------------------------------------------------

void record_bench_span(const char* name, Sample& s) {
  if (!msx::obs::trace_enabled()) return;
  if (s.span_id == 0) {
    s.trace = msx::obs::mint_trace_id();
    s.span_id = msx::obs::next_span_id();
  }
  msx::obs::record_span(name, s.trace, s.span_id, 0, s.t0, s.t1 - s.t0,
                        "bench");
}

BenchSpan::BenchSpan(const char* name) : name_(name) {
  if (msx::obs::trace_enabled()) {
    s_.trace = msx::obs::mint_trace_id();
    s_.span_id = msx::obs::next_span_id();
    ctx_ = std::make_unique<msx::obs::ScopedTraceContext>(
        msx::obs::TraceContext{s_.trace, s_.span_id, "bench"});
  }
  s_.t0 = now_ns();
}

BenchSpan::~BenchSpan() { finish(); }

const Sample& BenchSpan::finish() {
  if (!done_) {
    done_ = true;
    s_.t1 = now_ns();
    s_.t_call = s_.t1;
    ctx_.reset();
    record_bench_span(name_, s_);
  }
  return s_;
}

std::vector<Sample> gather(const std::vector<ClientLog>& logs, Outcome& out) {
  std::vector<Sample> samples;
  for (const auto& log : logs) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    samples.insert(samples.end(), log.samples.begin(), log.samples.end());
  }
  return samples;
}

std::vector<double> latencies_ms(const std::vector<Sample>& s, OpKind kind) {
  std::vector<double> ms;
  for (const auto& x : s) {
    if (x.kind == kind) ms.push_back(static_cast<double>(x.t1 - x.t0) * 1e-6);
  }
  return ms;
}

// ---- end-to-end -------------------------------------------------------------

double median_setup(const std::vector<double>& setups) {
  std::printf("setup: %zu set-ups, seconds:", setups.size());
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  return median(setups);
}

std::vector<double> Window::rates(const std::vector<Sample>& samples) const {
  constexpr std::uint64_t kSlice = 1'000'000'000;
  const std::size_t slices =
      std::max<std::uint64_t>(1, (stop - start) / kSlice);
  struct Slice {
    std::uint64_t first = ~std::uint64_t{0}, last = 0;
    double count = 0;
  };
  std::vector<Slice> sl(slices);
  for (const auto& s : samples) {
    if (s.t1 < start) continue;
    const std::size_t k = (s.t1 - start) / kSlice;
    if (k >= slices) continue;
    sl[k].first = std::min(sl[k].first, s.t1);
    sl[k].last = std::max(sl[k].last, s.t1);
    sl[k].count += 1;
  }
  std::vector<double> rates;
  for (const auto& x : sl) {
    if (x.count >= 2 && x.last > x.first) {
      rates.push_back((x.count - 1) / ns_to_s(x.last - x.first));
    }
  }
  return rates;
}

void set_end_to_end(Outcome& out, const std::vector<double>& rates,
                    const std::vector<double>& lat_ms, double tail_pct,
                    double setup_s, double rss_mb) {
  out.set("setup_s", setup_s);
  out.set("ops_per_s", median(rates));
  out.set("p50_ms", median(lat_ms));
  out.set("tail_ms", percentile(lat_ms, tail_pct));
  out.set("peak_rss_mb", rss_mb);
  const std::size_t beyond = samples_beyond(lat_ms.size(), tail_pct);
  std::printf("throughput: median %.2f ops/s over %zu slices (min %.2f, "
              "max %.2f)\n",
              median(rates), rates.size(), percentile(rates, 0.0),
              percentile(rates, 100.0));
  std::printf("latency: p50 %.4f ms, p%g %.4f ms over %zu samples "
              "(%zu beyond p%g)%s\n",
              median(lat_ms), tail_pct, percentile(lat_ms, tail_pct),
              lat_ms.size(), beyond, tail_pct,
              beyond < 10 ? " - fewer than 10 beyond: tail unresolved" : "");
}

// ---- process and hardware counters ------------------------------------------

ProcUsage proc_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void set_proc_metrics(Outcome& out, const ProcUsage& before,
                      const ProcUsage& after, double ops) {
  if (ops <= 0) return;
  out.set("proc.cpu_ms_per_op", 1e3 * (after.cpu_s - before.cpu_s) / ops);
  out.set("proc.ctx_switches_per_op",
          (after.ctx_switches - before.ctx_switches) / ops);
}

namespace {

int open_counter(std::uint64_t config, pid_t tid) {
  perf_event_attr attr{};
  attr.size = sizeof attr;
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = config;
  attr.disabled = 1;
  attr.exclude_kernel = 1;  // allowed at perf_event_paranoid <= 2
  attr.exclude_hv = 1;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, tid, -1, -1, PERF_FLAG_FD_CLOEXEC));
}

std::vector<pid_t> process_threads() {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.push_back(static_cast<pid_t>(std::atoi(e.path().filename().c_str())));
  }
  return tids;
}

}  // namespace

HwCounters::~HwCounters() {
  for (auto& c : counters_) {
    for (int fd : c.fds) close(fd);
  }
}

void HwCounters::start() {
  static const std::pair<const char*, std::uint64_t> kEvents[] = {
      {"cycles", PERF_COUNT_HW_CPU_CYCLES},
      {"instructions", PERF_COUNT_HW_INSTRUCTIONS},
      {"llc_misses", PERF_COUNT_HW_CACHE_MISSES},
      {"branch_misses", PERF_COUNT_HW_BRANCH_MISSES},
  };
  const auto tids = process_threads();
  for (const auto& [name, config] : kEvents) {
    Counter c;
    c.name = name;
    for (pid_t tid : tids) {
      const int fd = open_counter(config, tid);
      if (fd < 0) {
        if (errno == ESRCH) continue;  // the thread exited meanwhile
        c.err = errno;
        for (int f : c.fds) close(f);
        c.fds.clear();
        break;
      }
      c.fds.push_back(fd);
    }
    if (c.fds.empty() && c.err == 0) c.err = ESRCH;
    for (int fd : c.fds) ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);
    counters_.push_back(std::move(c));
  }
}

void HwCounters::stop() {
  for (auto& c : counters_) {
    for (int fd : c.fds) {
      ioctl(fd, PERF_EVENT_IOC_DISABLE, 0);
      std::uint64_t v = 0;
      if (read(fd, &v, sizeof v) == static_cast<ssize_t>(sizeof v)) {
        c.total += static_cast<double>(v);
      }
      close(fd);
    }
    c.fds.clear();
  }
}

void HwCounters::print(double ops) const {
  for (const auto& c : counters_) {
    if (c.err != 0) {
      std::printf("hw.%s_per_op: null (perf_event_open errno %d: %s)\n",
                  c.name, c.err, std::strerror(c.err));
    } else {
      std::printf("hw.%s_per_op: %.6g\n", c.name,
                  ops > 0 ? c.total / ops : 0.0);
    }
  }
}

// ---- span analysis ----------------------------------------------------------

namespace {

struct TraceKey {
  std::uint64_t hi, lo;
  bool operator==(const TraceKey&) const = default;
};
struct TraceKeyHash {
  std::size_t operator()(const TraceKey& k) const {
    return static_cast<std::size_t>(k.hi * 0x9e3779b97f4a7c15ull ^ k.lo);
  }
};

TraceKey key_of(const msx::obs::TraceId& t) { return {t.hi, t.lo}; }

bool named(const msx::obs::SpanRecord& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

// Length of the union of [lo, hi) intervals clipped to [from, to).
double covered(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
               std::uint64_t from, std::uint64_t to) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  std::uint64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, from);
    hi = std::min(hi, to);
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) total += static_cast<double>(cur_hi - cur_lo);
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) total += static_cast<double>(cur_hi - cur_lo);
  return total;
}

}  // namespace

std::size_t adopt_client_spans(std::vector<msx::obs::SpanRecord>& spans,
                               const std::vector<Sample>& ops) {
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_id == 0 && named(spans[i], "client.submit")) {
      roots.push_back(i);
    }
  }
  std::sort(roots.begin(), roots.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].start_ns < spans[b].start_ns;
  });
  std::vector<const Sample*> queries;
  for (const auto& s : ops) {
    if (s.kind == OpKind::kQuery && s.span_id != 0) queries.push_back(&s);
  }
  std::sort(queries.begin(), queries.end(),
            [](const Sample* a, const Sample* b) { return a->t0 < b->t0; });

  // A root starts microseconds after its own call is entered, so taking
  // calls in entry order and giving each the earliest free root inside its
  // window that ended before its result was seen pairs them exactly unless
  // two calls enter within that gap.
  std::vector<char> taken(roots.size(), 0);
  std::unordered_map<TraceKey, const Sample*, TraceKeyHash> owner;
  std::size_t unmatched = 0;
  for (const Sample* q : queries) {
    auto it = std::lower_bound(
        roots.begin(), roots.end(), q->t0,
        [&](std::size_t r, std::uint64_t t) { return spans[r].start_ns < t; });
    std::size_t best = roots.size();
    for (; it != roots.end() && spans[*it].start_ns <= q->t_call; ++it) {
      const std::size_t k = static_cast<std::size_t>(it - roots.begin());
      const auto& r = spans[*it];
      if (!taken[k] && r.start_ns + r.dur_ns <= q->t1) {
        best = k;
        break;
      }
    }
    if (best == roots.size()) {
      ++unmatched;
      continue;
    }
    taken[best] = 1;
    auto& root = spans[roots[best]];
    owner[key_of(root.trace)] = q;
    root.parent_id = q->span_id;
  }
  for (auto& s : spans) {
    const auto it = owner.find(key_of(s.trace));
    if (it != owner.end()) s.trace = it->second->trace;
  }
  return unmatched;
}

SpanStats analyze_spans(const std::vector<msx::obs::SpanRecord>& spans) {
  SpanStats st;
  std::unordered_map<TraceKey, std::vector<std::size_t>, TraceKeyHash> traces;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    traces[key_of(spans[i].trace)].push_back(i);
  }
  for (const auto& [key, members] : traces) {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
    bool has_bench_root = false;
    for (std::size_t i : members) {
      children[spans[i].parent_id].push_back(i);
      if (std::strncmp(spans[i].name, "bench.", 6) == 0) has_bench_root = true;
    }
    for (std::size_t i : members) {
      const auto& s = spans[i];
      const std::uint64_t end = s.start_ns + s.dur_ns;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      std::vector<double> panels;
      const auto ch = children.find(s.span_id);
      if (ch != children.end()) {
        for (std::size_t c : ch->second) {
          iv.emplace_back(spans[c].start_ns,
                          spans[c].start_ns + spans[c].dur_ns);
          if (named(spans[c], "shard.request")) {
            panels.push_back(static_cast<double>(spans[c].dur_ns));
          }
        }
      }
      const double self =
          static_cast<double>(s.dur_ns) -
          covered(std::move(iv), s.start_ns, end);
      st.self_ns[s.name].push_back(self);
      st.dur_ns[s.name].push_back(static_cast<double>(s.dur_ns));
      if (has_bench_root) st.tree_self_ns += self;
      if (std::strncmp(s.name, "bench.", 6) == 0) {
        st.root_ns += static_cast<double>(s.dur_ns);
        st.root_self_ns += self;
      }
      if (panels.size() >= 2) {
        const double slowest = *std::max_element(panels.begin(), panels.end());
        st.panel_spread.push_back(slowest / median(panels));
      }
    }
  }
  return st;
}

void set_trace_metrics(Outcome& out, const SpanStats& st) {
  const auto self_us = [&](const char* name) {
    const auto it = st.self_ns.find(name);
    return it == st.self_ns.end() ? 0.0 : median(it->second) * 1e-3;
  };
  const auto share = [&](const char* name) {
    const auto it = st.self_ns.find(name);
    if (it == st.self_ns.end() || st.root_ns <= 0) return 0.0;
    double sum = 0;
    for (double v : it->second) sum += v;
    return sum / st.root_ns;
  };
  for (const char* name : {"client.submit", "wire.send", "shard.request",
                           "exec.run", "2d.scatter", "2d.merge",
                           "delta.apply"}) {
    out.set(std::string("trace.") + name + ".self_us", self_us(name));
  }
  const auto q = st.dur_ns.find("exec.queue");
  out.set("trace.exec.queue.p50_us",
          q == st.dur_ns.end() ? 0.0 : median(q->second) * 1e-3);
  for (const char* phase : {"symbolic", "numeric", "bound", "compact"}) {
    out.set(std::string("trace.phase.") + phase + ".share",
            share((std::string("phase.") + phase).c_str()));
  }
  out.set("trace.unattributed_share",
          st.root_ns > 0 ? st.root_self_ns / st.root_ns : 0.0);
  out.set("trace.accounted_ratio",
          st.root_ns > 0 ? st.tree_self_ns / st.root_ns : 0.0);
  out.set("distributed.panel_spread",
          st.panel_spread.empty() ? 0.0 : median(st.panel_spread));

  std::printf("%-16s %8s %12s %12s %9s\n", "span", "count", "self p50 us",
              "dur p50 us", "self/root");
  for (const auto& [name, v] : st.self_ns) {
    double sum = 0;
    for (double x : v) sum += x;
    std::printf("%-16s %8zu %12.2f %12.2f %9.4f\n", name.c_str(), v.size(),
                median(v) * 1e-3, median(st.dur_ns.at(name)) * 1e-3,
                st.root_ns > 0 ? sum / st.root_ns : 0.0);
  }
}

void write_trace(const Config& cfg,
                 const std::vector<msx::obs::SpanRecord>& spans) {
  const std::string path = cfg.out_dir + "/trace_" + cfg.workload + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("trace: cannot write %s\n", path.c_str());
    return;
  }
  const std::string json = msx::obs::chrome_trace_json(spans);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("trace: %zu spans written to %s\n", spans.size(), path.c_str());
}

// ---- self-test --------------------------------------------------------------

int self_test() {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(percentile(hundred, 50) == 50, "nearest-rank p50 of 1..100 is 50");
  check(percentile(hundred, 99) == 99, "nearest-rank p99 of 1..100 is 99");
  check(percentile(hundred, 100) == 100, "p100 is the maximum");
  check(percentile({5, 1, 3}, 50) == 3, "p50 of {5,1,3} is 3");
  check(median({4, 1, 3, 2}) == 2, "median of {1,2,3,4} is rank 2");
  check(percentile({7}, 99) == 7, "one sample is every percentile");
  check(std::isnan(percentile({}, 50)), "empty sample gives NaN");
  check(samples_beyond(1000, 99) == 10, "p99 of 1000 has 10 beyond");
  check(samples_beyond(999, 99) == 9, "p99 of 999 has 9 beyond");

  // bench.q [0,100) has children a [10,60) and b [50,90); a has child
  // g [20,30); b has child c [85,120) that runs past its parent.
  using msx::obs::SpanRecord;
  const msx::obs::TraceId t{1, 2};
  const auto span = [&](const char* name, std::uint64_t id,
                        std::uint64_t parent, std::uint64_t lo,
                        std::uint64_t hi) {
    SpanRecord r;
    r.trace = t;
    r.span_id = id;
    r.parent_id = parent;
    r.name = name;
    r.start_ns = lo;
    r.dur_ns = hi - lo;
    return r;
  };
  const std::vector<SpanRecord> tree = {
      span("bench.q", 1, 0, 0, 100), span("a", 2, 1, 10, 60),
      span("b", 3, 1, 50, 90),       span("g", 4, 2, 20, 30),
      span("c", 5, 3, 85, 120),
  };
  const SpanStats st = analyze_spans(tree);
  check(st.self_ns.at("bench.q")[0] == 20, "root self = 100 - |[10,90)|");
  check(st.self_ns.at("a")[0] == 40, "a self = 50 - 10");
  check(st.self_ns.at("b")[0] == 35, "b self = 40 - clipped [85,90)");
  check(st.self_ns.at("g")[0] == 10, "leaf self = duration");
  check(st.root_ns == 100 && st.root_self_ns == 20, "root totals");
  check(st.tree_self_ns == 20 + 40 + 35 + 10 + 35, "tree self sum");

  // Two overlapping submit calls; each library root must land under the
  // driver span whose result it produced.
  std::vector<SpanRecord> lib = {
      span("client.submit", 10, 0, 105, 300),
      span("client.submit", 20, 0, 108, 200),
  };
  lib[0].trace = {7, 7};
  lib[1].trace = {8, 8};
  lib.push_back(span("shard.request", 11, 10, 150, 250));
  lib.back().trace = {7, 7};
  Sample q1, q2;
  q1.t0 = 100;
  q1.t_call = 110;
  q1.t1 = 305;
  q1.trace = {100, 1};
  q1.span_id = 1000;
  q2.t0 = 104;
  q2.t_call = 112;
  q2.t1 = 202;
  q2.trace = {200, 2};
  q2.span_id = 2000;
  const std::size_t unmatched = adopt_client_spans(lib, {q1, q2});
  check(unmatched == 0, "every query adopts a root");
  check(lib[0].parent_id == 1000 && lib[1].parent_id == 2000,
        "roots adopted by the call that saw their result");
  check(lib[2].trace == q1.trace, "a root's descendants join the driver trace");
  return failures;
}

}  // namespace ledger
