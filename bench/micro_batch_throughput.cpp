// micro_batch_throughput — jobs/sec of the concurrent runtime on a batch of
// small masked products versus a sequential loop of stateless masked_spgemm
// calls (ISSUE 3 acceptance: ≥2x on ≥64 small products with 8+ threads,
// warm plan-cache hit rate reported).
//
//   ./bench_micro_batch_throughput [--jobs N] [--structures K] [--reps R]
//                                  [--threads T] [--json[=PATH]]
//
// The workload models service traffic: K distinct small structures, each
// requested jobs/K times with fresh numeric values per request. The
// sequential baseline pays per-call planning and OpenMP region overhead;
// the runtime pays neither once the PlanCache is warm and runs the small
// jobs one-per-worker.
#include <cstdint>
#include <cstdio>
#include <future>
#include <vector>

#include "bench_common.hpp"
#include "gen/erdos_renyi.hpp"
#include "runtime/batch.hpp"

using namespace msx;
using namespace msx::bench;

namespace {

struct Shapes {
  std::vector<Mat> a, b, m;
};

Shapes make_structures(int k, int scale_shift) {
  const IT base = static_cast<IT>(160 << (scale_shift > 0 ? scale_shift : 0));
  Shapes s;
  for (int i = 0; i < k; ++i) {
    const IT rows = base + 24 * static_cast<IT>(i);
    s.a.push_back(erdos_renyi<IT, VT>(rows, rows, 6, 41 + i));
    s.b.push_back(erdos_renyi<IT, VT>(rows, rows, 6, 71 + i));
    s.m.push_back(erdos_renyi<IT, VT>(rows, rows, 8, 91 + i));
  }
  return s;
}

void refresh(Mat& mat, int salt) {
  auto vals = mat.mutable_values();
  for (std::size_t p = 0; p < vals.size(); ++p) {
    vals[p] = 1.0 + static_cast<double>((p + static_cast<std::size_t>(salt)) % 5);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = BenchConfig::parse(argc, argv);
  ArgParser args(argc, argv);
  const int jobs = static_cast<int>(args.get_int("jobs", 96));
  const int nstructures = static_cast<int>(args.get_int("structures", 16));
  print_header("micro_batch_throughput — runtime batch executor vs "
               "sequential masked_spgemm loop",
               "ISSUE 3 (concurrent masked-SpGEMM runtime)", cfg);

  auto shapes = make_structures(nstructures, cfg.scale_shift);
  using SRt = PlusTimes<VT>;
  MaskedOptions opts;
  opts.threads = cfg.threads;

  // Service usage: the stationary operands (B, the mask) are held shared and
  // cross the submit boundary by reference; only the per-request A is
  // materialized per job.
  std::vector<std::shared_ptr<const Mat>> shared_b, shared_m;
  for (int s = 0; s < nstructures; ++s) {
    shared_b.push_back(std::make_shared<const Mat>(
        shapes.b[static_cast<std::size_t>(s)]));
    shared_m.push_back(std::make_shared<const Mat>(
        shapes.m[static_cast<std::size_t>(s)]));
  }

  Table table({"path", "seconds", "jobs/s", "speedup"});
  BenchJsonFile artifact("micro_batch_throughput", cfg);

  double best_seq = nan_time();
  double best_run = nan_time();
  double hit_rate = 0.0;
  double lat_p50 = 0.0, lat_p95 = 0.0, lat_p99 = 0.0;
  std::uint64_t small_jobs = 0, wide_jobs = 0;
  int pool_threads = 0;

  for (int rep = 0; rep < std::max(1, cfg.reps); ++rep) {
    // --- sequential baseline ---
    WallTimer seq_timer;
    std::size_t seq_nnz = 0;
    for (int j = 0; j < jobs; ++j) {
      const auto s = static_cast<std::size_t>(j % nstructures);
      refresh(shapes.a[s], j);
      seq_nnz += masked_spgemm<SRt>(shapes.a[s], shapes.b[s], shapes.m[s],
                                    opts).nnz();
    }
    const double seq_seconds = seq_timer.seconds();

    // --- runtime: warm the cache, then the timed round ---
    BatchLimits limits;
    limits.pool_threads = cfg.threads;
    BatchExecutor<SRt, IT, VT> exec(limits);
    {
      std::vector<std::future<Mat>> warm;
      for (int s = 0; s < nstructures; ++s) {
        warm.push_back(exec.submit_shared(
            std::make_shared<const Mat>(shapes.a[static_cast<std::size_t>(s)]),
            shared_b[static_cast<std::size_t>(s)],
            shared_m[static_cast<std::size_t>(s)], opts));
      }
      for (auto& f : warm) f.get();
    }
    exec.wait_idle();
    const auto warm_stats = exec.stats();

    WallTimer run_timer;
    std::vector<std::future<Mat>> inflight;
    inflight.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) {
      const auto s = static_cast<std::size_t>(j % nstructures);
      refresh(shapes.a[s], j);
      inflight.push_back(exec.submit_shared(
          std::make_shared<const Mat>(shapes.a[s]), shared_b[s], shared_m[s],
          opts));
    }
    std::size_t run_nnz = 0;
    for (auto& f : inflight) run_nnz += f.get().nnz();
    const double run_seconds = run_timer.seconds();

    if (seq_nnz != run_nnz) {
      std::fprintf(stderr, "result mismatch: %zu vs %zu nnz\n", seq_nnz,
                   run_nnz);
      return 1;
    }
    if (std::isnan(best_seq) || seq_seconds < best_seq) best_seq = seq_seconds;
    if (std::isnan(best_run) || run_seconds < best_run) best_run = run_seconds;
    exec.wait_idle();
    const auto st = exec.stats();
    // Hit rate of the timed (warm) round alone: delta against the stats
    // snapshot taken after the warm-up pass.
    const auto warm_lookups = warm_stats.cache.hits + warm_stats.cache.misses +
                              warm_stats.cache.grows;
    const auto total_lookups =
        st.cache.hits + st.cache.misses + st.cache.grows;
    hit_rate = total_lookups > warm_lookups
                   ? static_cast<double>(st.cache.hits - warm_stats.cache.hits) /
                         static_cast<double>(total_lookups - warm_lookups)
                   : 0.0;
    small_jobs = st.small_jobs;
    wide_jobs = st.wide_jobs;
    pool_threads = exec.pool_threads();
    // Queue+run latency percentiles of this rep's jobs (warm-up included;
    // it is a small, fixed fraction). Zero when MSX_METRICS=0.
    if (const obs::Histogram* h = exec.metrics().find_histogram(
            "msx_job_seconds");
        h != nullptr && h->count() > 0) {
      lat_p50 = h->quantile(0.50);
      lat_p95 = h->quantile(0.95);
      lat_p99 = h->quantile(0.99);
    }
  }

  const double seq_rate = jobs / best_seq;
  const double run_rate = jobs / best_run;
  const double speedup = best_seq / best_run;
  table.add_row({"sequential", Table::num(best_seq * 1e3, 3) + "ms",
                 Table::num(seq_rate, 1), "1.00x"});
  table.add_row({"runtime", Table::num(best_run * 1e3, 3) + "ms",
                 Table::num(run_rate, 1), Table::num(speedup, 2) + "x"});
  table.print();
  std::printf("\n%d jobs over %d structures; %d pool threads; warm plan-cache "
              "hit rate %.0f%% (%llu small / %llu wide jobs)\n",
              jobs, nstructures, pool_threads, 100.0 * hit_rate,
              static_cast<unsigned long long>(small_jobs),
              static_cast<unsigned long long>(wide_jobs));
  std::printf("job latency p50 %.3fms / p95 %.3fms / p99 %.3fms\n",
              lat_p50 * 1e3, lat_p95 * 1e3, lat_p99 * 1e3);
  std::printf("acceptance: >=2x jobs/sec on >=64 small products with 8+ "
              "threads (measured %.2fx)\n", speedup);

  JsonObject record;
  record.field("jobs", jobs)
      .field("structures", nstructures)
      .field("pool_threads", pool_threads)
      .field("sequential_seconds", best_seq)
      .field("runtime_seconds", best_run)
      .field("jobs_per_sec_sequential", seq_rate)
      .field("jobs_per_sec_runtime", run_rate)
      .field("speedup", speedup)
      .field("cache_hit_rate", hit_rate)
      .field("latency_p50_seconds", lat_p50)
      .field("latency_p95_seconds", lat_p95)
      .field("latency_p99_seconds", lat_p99);
  artifact.add(record);
  if (!artifact.write(
          cfg.resolved_json_path("BENCH_micro_batch_throughput.json"))) {
    return 1;
  }
  return 0;
}
