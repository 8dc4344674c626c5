// micro_async_client — one MaskedClient/ShardedBackend session driven at
// depth D (D requests in flight) versus the same session at depth 1
// (submit(...).get() per request), same shard fleet. Results must be
// bit-identical to direct masked_spgemm calls; the exit code is 1 on any
// mismatch and 0 otherwise.
//
//   ./bench_micro_async_client [--requests N] [--structures K] [--shards S]
//       [--inflight D] [--threads T] [--reps R] [--json[=PATH]]
//
// The workload is the service shape the client API was designed for: a
// large STATIONARY B per structure (the graph / the model), small per-request
// A and mask (the query). B is registered once per shard connection and each
// submit ships only A, so the two passes differ only in pipelining: depth 1
// waits out every round trip, depth D keeps the shards' executors fed.
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "client/client.hpp"
#include "client/sharded_backend.hpp"
#include "gen/erdos_renyi.hpp"
#include "service/shard.hpp"

using namespace msx;
using namespace msx::bench;
using namespace msx::service;
namespace mc = msx::client;

namespace {

struct Catalog {
  std::vector<Mat> a;
  std::vector<std::shared_ptr<const Mat>> b, m;
};

Catalog make_catalog(int k, int scale_shift) {
  // Stationary B dominates the operand bytes; A and the mask are the small
  // per-request side.
  const IT big = static_cast<IT>(1536 << (scale_shift > 0 ? scale_shift : 0));
  const IT small = static_cast<IT>(160);
  Catalog c;
  for (int i = 0; i < k; ++i) {
    const IT rb = big + 64 * static_cast<IT>(i);
    c.a.push_back(erdos_renyi<IT, VT>(small, rb, 6, 211 + i));
    c.b.push_back(std::make_shared<const Mat>(
        erdos_renyi<IT, VT>(rb, rb, 12, 221 + i)));
    c.m.push_back(std::make_shared<const Mat>(
        erdos_renyi<IT, VT>(small, rb, 10, 231 + i)));
  }
  return c;
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
  const int requests = static_cast<int>(args.get_int("requests", 64));
  const int nstructures = static_cast<int>(args.get_int("structures", 4));
  const int nshards = static_cast<int>(args.get_int("shards", 2));
  const int inflight = static_cast<int>(args.get_int("inflight", 16));
  print_header("micro_async_client — pipelined client session at depth D "
               "vs the same session at depth 1",
               "ISSUE 5 (unified async client API)", cfg);

  using SRt = PlusTimes<VT>;
  auto catalog = make_catalog(nstructures, cfg.scale_shift);
  MaskedOptions opts;

  Table table({"path", "seconds", "requests/s", "speedup"});
  BenchJsonFile artifact("micro_async_client", cfg);

  double best_depth1 = nan_time();
  double best_pipe = nan_time();

  // One fleet and one session serve both passes (same warm caches).
  ShardConfig shard_cfg;
  shard_cfg.limits.pool_threads = cfg.threads;
  std::vector<std::unique_ptr<ServiceShard<SRt, IT, VT>>> shards;
  std::vector<ShardEndpoint> endpoints;
  for (int i = 0; i < nshards; ++i) {
    shards.push_back(std::make_unique<ServiceShard<SRt, IT, VT>>(shard_cfg));
    auto listener = std::make_unique<LoopbackListener>();
    auto* raw = listener.get();
    shards.back()->serve(std::move(listener));
    endpoints.push_back(ShardEndpoint{"shard-" + std::to_string(i),
                                      [raw] { return raw->connect(); }});
  }
  auto backend = std::make_shared<mc::ShardedBackend<SRt, IT, VT>>(endpoints);
  mc::MaskedClient<SRt, IT, VT> client(backend);
  auto session = client.open_session(
      {.max_in_flight = static_cast<std::size_t>(inflight)});

  // Register structures and verify the session bit-identical to direct
  // calls.
  std::vector<mc::StructureHandle<IT, VT>> handles;
  for (std::size_t s = 0; s < catalog.a.size(); ++s) {
    handles.push_back(session.register_structure(
        mc::StructureSpec<IT, VT>(catalog.b[s]).mask(catalog.m[s])));
    const auto want =
        masked_spgemm<SRt>(catalog.a[s], *catalog.b[s], *catalog.m[s], opts);
    auto via_client = session.submit(catalog.a[s], handles[s]).get();
    if (!via_client.ok() || !(via_client.matrix == want)) {
      std::fprintf(stderr, "result mismatch on structure %zu\n", s);
      return 1;
    }
  }

  for (int rep = 0; rep < std::max(1, cfg.reps); ++rep) {
    // --- depth 1: one outstanding request, each waited out in turn.
    WallTimer depth1_timer;
    std::size_t depth1_nnz = 0;
    for (int r = 0; r < requests; ++r) {
      const auto s = static_cast<std::size_t>(r % nstructures);
      refresh(catalog.a[s], r);
      depth1_nnz +=
          session.submit(catalog.a[s], handles[s]).get().value().nnz();
    }
    const double depth1_seconds = depth1_timer.seconds();

    // --- depth D: the same submits, D in flight.
    WallTimer pipe_timer;
    std::size_t pipe_nnz = 0;
    {
      std::vector<std::future<mc::ClientResult<IT, VT>>> futures;
      futures.reserve(static_cast<std::size_t>(requests));
      for (int r = 0; r < requests; ++r) {
        const auto s = static_cast<std::size_t>(r % nstructures);
        refresh(catalog.a[s], r);
        futures.push_back(session.submit(catalog.a[s], handles[s]));
      }
      for (auto& f : futures) pipe_nnz += f.get().value().nnz();
    }
    const double pipe_seconds = pipe_timer.seconds();

    if (depth1_nnz != pipe_nnz) {
      std::fprintf(stderr, "nnz mismatch: %zu vs %zu\n", depth1_nnz,
                   pipe_nnz);
      return 1;
    }
    if (std::isnan(best_depth1) || depth1_seconds < best_depth1) {
      best_depth1 = depth1_seconds;
    }
    if (std::isnan(best_pipe) || pipe_seconds < best_pipe) {
      best_pipe = pipe_seconds;
    }
  }

  // Client-observed submit->completion percentiles over both passes (every
  // session in this process shares the one global series). Zero when
  // MSX_METRICS=0.
  double lat_p50 = 0.0, lat_p95 = 0.0, lat_p99 = 0.0;
  if (const obs::Histogram* h = obs::Registry::global().find_histogram(
          "msx_client_request_seconds");
      h != nullptr && h->count() > 0) {
    lat_p50 = h->quantile(0.50);
    lat_p95 = h->quantile(0.95);
    lat_p99 = h->quantile(0.99);
  }

  const double depth1_rate = requests / best_depth1;
  const double pipe_rate = requests / best_pipe;
  const double speedup = best_depth1 / best_pipe;
  table.add_row({"depth-1", Table::num(best_depth1 * 1e3, 3) + "ms",
                 Table::num(depth1_rate, 1), "1.00x"});
  table.add_row({"depth-" + std::to_string(inflight),
                 Table::num(best_pipe * 1e3, 3) + "ms",
                 Table::num(pipe_rate, 1), Table::num(speedup, 2) + "x"});
  table.print();

  std::printf("\n%d requests over %d structures; %d shards, %d in flight\n",
              requests, nstructures, nshards, inflight);
  std::printf("request latency p50 %.3fms / p95 %.3fms / p99 %.3fms\n",
              lat_p50 * 1e3, lat_p95 * 1e3, lat_p99 * 1e3);

  JsonObject record;
  record.field("requests", requests)
      .field("structures", nstructures)
      .field("shards", nshards)
      .field("inflight", inflight)
      .field("depth1_seconds", best_depth1)
      .field("pipelined_seconds", best_pipe)
      .field("requests_per_sec_depth1", depth1_rate)
      .field("requests_per_sec_pipelined", pipe_rate)
      .field("depth_speedup", speedup)
      .field("latency_p50_seconds", lat_p50)
      .field("latency_p95_seconds", lat_p95)
      .field("latency_p99_seconds", lat_p99);
  artifact.add(record);
  if (!artifact.write(
          cfg.resolved_json_path("BENCH_micro_async_client.json"))) {
    return 1;
  }
  return 0;
}
