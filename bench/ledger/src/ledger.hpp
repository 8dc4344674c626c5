// Shared pieces of the msx_ledger driver: the run configuration, the metric
// catalogue, nearest-rank statistics, the closed-loop client harness,
// process and hardware counters read from outside the library, and the
// span analysis of traced runs.
//
// Every timing is taken by the driver around a call into a public entry
// point, with std::chrono::steady_clock (msx::obs::now_ns reads the same
// clock, which lets driver stamps and library spans share one time axis).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "matrix/csr.hpp"
#include "obs/trace.hpp"

namespace ledger {

using IT = std::int32_t;
using VT = double;
using Mat = msx::CSRMatrix<IT, VT>;
using MatPtr = std::shared_ptr<const Mat>;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured window
  bool trace = false;     // per-layer run instead of the end-to-end run
  std::string out_dir = ".";
};

inline std::uint64_t now_ns() { return msx::obs::now_ns(); }
inline double ns_to_s(std::uint64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

// ---- metric catalogue -----------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported by every untraced run, on every workload.
const std::vector<MetricDef>& end_to_end_metrics();
// Reported by every traced run, on every workload; a layer that a workload
// never enters reads 0.
const std::vector<MetricDef>& per_layer_metrics();

// One run's outcome: the correctness tally plus the metric values of the
// catalogue that matches the run kind.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  // Aborts on a name missing from both catalogues (a driver bug).
  void set(const std::string& name, double value);
  // Tallies one checked result; a wrong one is also printed.
  void check(bool ok, const char* what);
};

// Prints the catalogue's metrics as the one-line JSON result.
void print_result(const Outcome& out, bool trace);

// Prints both catalogues as JSON (run.py --self-test compares them with
// BENCHMARK.json).
void print_catalogue();

// ---- nearest-rank statistics ---------------------------------------------

// The sample at nearest rank ceil(p/100 * n) of the sorted samples,
// p in (0, 100]. NaN for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
// How many samples lie above the nearest-rank p-th percentile.
std::size_t samples_beyond(std::size_t n, double p);

// ---- closed-loop clients ---------------------------------------------------

enum class OpKind : std::uint8_t { kQuery, kUpdate };

// One timed operation: t0 when the public call is entered, t_call when it
// returns (for Session::submit, before the result exists), t1 when the
// result is ready.
struct Sample {
  std::uint64_t t0 = 0;
  std::uint64_t t_call = 0;
  std::uint64_t t1 = 0;
  OpKind kind = OpKind::kQuery;
  msx::obs::TraceId trace;
  std::uint64_t span_id = 0;
};

// Far above any client's operation count in a 60 s window.
inline constexpr std::size_t kMaxSamplesPerClient = std::size_t{1} << 20;

struct ClientLog {
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Records the driver-owned span of a timed call when tracing is on.
void record_bench_span(const char* name, Sample& s);

// Installs a driver-owned span as the ambient trace for the calls made
// while it lives (library ScopedSpans such as phase.* nest under it), and
// records it on finish().
class BenchSpan {
 public:
  explicit BenchSpan(const char* name);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

  const Sample& finish();  // idempotent

 private:
  const char* name_;
  Sample s_;
  bool done_ = false;
  std::unique_ptr<msx::obs::ScopedTraceContext> ctx_;
};

struct Window {
  std::uint64_t start = 0;  // end of warm-up
  std::uint64_t stop = 0;   // clients issue nothing after this
  // The completion rate within each 1 s slice of [start, stop): the
  // slice's completions after its first one, over the time from its first
  // completion to its last.
  std::vector<double> rates(const std::vector<Sample>& samples) const;
};

// Runs op(client, log) in a closed loop with zero think time on `clients`
// threads for warmup_s + window_s seconds; each call performs one
// iteration and appends its samples. Samples started before the window are
// dropped from the returned logs (their correctness tally is kept). The
// calling thread runs at_start/at_stop at the window's edges, while every
// client thread is alive.
template <class Op>
std::vector<ClientLog> closed_loop(
    int clients, double warmup_s, double window_s, Op&& op, Window* w,
    const std::function<void()>& at_start = {},
    const std::function<void()>& at_stop = {}) {
  const std::uint64_t t_begin = now_ns();
  w->start = t_begin + static_cast<std::uint64_t>(warmup_s * 1e9);
  w->stop = w->start + static_cast<std::uint64_t>(window_s * 1e9);
  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  // Reserved, not touched: the log's resident size follows the samples
  // taken, with no reallocation copies to inflate the peak RSS.
  for (auto& log : logs) log.samples.reserve(kMaxSamplesPerClient);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      while (now_ns() < w->stop) op(c, log);
    });
  }
  const auto sleep_until = [](std::uint64_t t) {
    const std::uint64_t now = now_ns();
    if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
  };
  sleep_until(w->start);
  if (at_start) at_start();
  sleep_until(w->stop);
  if (at_stop) at_stop();
  for (auto& t : threads) t.join();
  for (auto& log : logs) {
    std::erase_if(log.samples,
                  [&](const Sample& s) { return s.t0 < w->start; });
  }
  return logs;
}

// Adds the logs' correctness tallies to `out` and returns their samples.
std::vector<Sample> gather(const std::vector<ClientLog>& logs, Outcome& out);
std::vector<double> latencies_ms(const std::vector<Sample>& s, OpKind kind);

// ---- end-to-end helpers -----------------------------------------------------

// Median of `setups` repeated set-up times (seconds).
double median_setup(const std::vector<double>& setups);

// setup_s, ops_per_s (the median of `rates`), p50_ms and tail_ms
// (nearest-rank `tail_pct` of `lat_ms`) and peak_rss_mb (`rss_mb`, read
// when the window ends); prints the sample counts behind them.
void set_end_to_end(Outcome& out, const std::vector<double>& rates,
                    const std::vector<double>& lat_ms, double tail_pct,
                    double setup_s, double rss_mb);

// ---- process and hardware counters -----------------------------------------

struct ProcUsage {
  double cpu_s = 0;         // user + system, all threads
  double ctx_switches = 0;  // voluntary + involuntary
};
ProcUsage proc_usage();
double peak_rss_mb();  // ru_maxrss

// Hardware counters (cycles, instructions, LLC misses, branch misses)
// opened on every thread of the process that exists at start(), read and
// closed at stop(). A counter the kernel refuses reads as unavailable with
// the errno of the refusal.
class HwCounters {
 public:
  HwCounters() = default;
  ~HwCounters();
  HwCounters(const HwCounters&) = delete;
  HwCounters& operator=(const HwCounters&) = delete;

  void start();
  void stop();
  // Prints "hw.<name>_per_op" for each counter, null with the errno when
  // the counter could not be opened.
  void print(double ops) const;

 private:
  struct Counter {
    const char* name;
    std::vector<int> fds;
    int err = 0;
    double total = 0;
  };
  std::vector<Counter> counters_;
};

// proc.cpu_ms_per_op and proc.ctx_switches_per_op over one window.
void set_proc_metrics(Outcome& out, const ProcUsage& before,
                      const ProcUsage& after, double ops);

// ---- span analysis -------------------------------------------------------

// Session::submit mints its own trace id and records its client.submit root
// span at completion, so the driver cannot hand it a parent. This re-parents
// each such root (and its whole trace) under the driver span of the submit
// call whose [t0, t_call] window contains the root's start and which saw
// the result after the root ended. Returns how many driver query spans
// found no root.
std::size_t adopt_client_spans(std::vector<msx::obs::SpanRecord>& spans,
                               const std::vector<Sample>& ops);

struct SpanStats {
  // Self time (duration minus the part of it that child spans cover) and
  // duration of every span, in nanoseconds, by span name.
  std::map<std::string, std::vector<double>> self_ns;
  std::map<std::string, std::vector<double>> dur_ns;
  double root_ns = 0;       // summed duration of driver spans ("bench.*")
  double root_self_ns = 0;  // part of it no child span covers
  double tree_self_ns = 0;  // summed self time over the driver span trees
  // slowest / median shard.request duration among the panels of each
  // product that fanned out to at least two shards
  std::vector<double> panel_spread;
};

SpanStats analyze_spans(const std::vector<msx::obs::SpanRecord>& spans);

// trace.* metrics: per-name median self times, phase shares, the
// unattributed share and the accounting ratio.
void set_trace_metrics(Outcome& out, const SpanStats& st);

// Writes the spans as Chrome trace JSON to <out_dir>/trace_<workload>.json.
void write_trace(const Config& cfg,
                 const std::vector<msx::obs::SpanRecord>& spans);

// ---- ledger rows -----------------------------------------------------------

// Calls f(i, true) once for every item as a checked warm-up, then
// f(i, false) in `passes` timed passes over all items at concurrency 1;
// median microseconds per call.
template <class F>
double median_call_us(int passes, std::size_t items, F&& f) {
  for (std::size_t i = 0; i < items; ++i) f(i, true);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(passes) * items);
  for (int p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < items; ++i) {
      const std::uint64_t t0 = now_ns();
      f(i, false);
      us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
  }
  return median(std::move(us));
}

// ---- traced run ------------------------------------------------------------

// The traced run's two windows over an already warm fleet: an untraced one
// (process and hardware counters, the throughput baseline), then a traced
// one whose spans are adopted under the driver spans, analysed and written
// out. Returns the untraced window's samples.
template <class Op>
std::vector<Sample> traced_windows(const Config& cfg, int clients, Op&& op,
                                   Outcome& out) {
  const double window = std::min(cfg.seconds, 3.0);
  HwCounters hw;
  ProcUsage u0, u1;
  Window w;
  const auto plain = gather(closed_loop(
      clients, 1.0, window, op, &w,
      [&] {
        u0 = proc_usage();
        hw.start();
      },
      [&] {
        hw.stop();
        u1 = proc_usage();
      }), out);
  const auto ops = static_cast<double>(plain.size());
  set_proc_metrics(out, u0, u1, ops);
  hw.print(ops);

  msx::obs::clear_spans();
  msx::obs::set_trace_enabled(true);
  Window tw;
  const auto traced =
      gather(closed_loop(clients, 0.0, window, op, &tw), out);
  msx::obs::set_trace_enabled(false);
  auto spans = msx::obs::collect_spans();
  const std::size_t unmatched = adopt_client_spans(spans, traced);
  std::printf("trace: %zu driver ops, %zu without a library root span\n",
              traced.size(), unmatched);
  write_trace(cfg, spans);
  set_trace_metrics(out, analyze_spans(spans));
  const double plain_rate = median(w.rates(plain));
  const double traced_rate = median(tw.rates(traced));
  std::printf("throughput: %.1f ops/s untraced, %.1f ops/s traced\n",
              plain_rate, traced_rate);
  out.set("obs.trace_overhead", 1.0 - traced_rate / plain_rate);
  return plain;
}

// ---- workloads -------------------------------------------------------------

Outcome run_apps_rmat(const Config& cfg);
Outcome run_svc_small(const Config& cfg);
Outcome run_svc_stream(const Config& cfg);
Outcome run_svc_2d(const Config& cfg);

// Driver self-test: percentile math and span self time on a synthetic tree.
// Returns the number of failed checks.
int self_test();

}  // namespace ledger
