// micro_service_throughput — end-to-end requests/sec of the sharded service
// (MaskedClient session → wire protocol → loopback shards →
// BatchExecutor/PlanCache) versus a sequential loop of stateless
// masked_spgemm calls (ISSUE 4 acceptance: ≥2 shards, results bit-identical,
// ≥90% warm plan-cache hit rate on repeated structures; ISSUE 5 retrofit:
// the traffic rides the pipelined client session).
//
//   ./bench_micro_service_throughput [--requests N] [--structures K]
//       [--shards S] [--inflight D] [--threads T] [--reps R] [--json[=PATH]]
//
// The workload models service traffic: K recurring structures requested
// round-robin with fresh numeric values. Each structure's stationary
// operands are registered once per shard connection; per request only the
// refreshed A crosses the wire, and the shard's warm PlanCache serves the
// product. Structure affinity (the routing point) keeps every structure on
// one shard.
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
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
  const IT base = static_cast<IT>(128 << (scale_shift > 0 ? scale_shift : 0));
  Catalog c;
  for (int i = 0; i < k; ++i) {
    const IT rows = base + 24 * static_cast<IT>(i);
    c.a.push_back(erdos_renyi<IT, VT>(rows, rows, 6, 411 + i));
    c.b.push_back(std::make_shared<const Mat>(
        erdos_renyi<IT, VT>(rows, rows, 6, 421 + i)));
    c.m.push_back(std::make_shared<const Mat>(
        erdos_renyi<IT, VT>(rows, rows, 8, 431 + i)));
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
  const int requests = static_cast<int>(args.get_int("requests", 96));
  const int nstructures = static_cast<int>(args.get_int("structures", 12));
  const int nshards = static_cast<int>(args.get_int("shards", 4));
  const int inflight = static_cast<int>(args.get_int("inflight", 16));
  print_header("micro_service_throughput — sharded service (client session + "
               "wire + loopback shards) vs sequential masked_spgemm loop",
               "ISSUE 4 (sharded service layer) / ISSUE 5 (client API)", cfg);

  using SRt = PlusTimes<VT>;
  auto catalog = make_catalog(nstructures, cfg.scale_shift);
  MaskedOptions opts;

  Table table({"path", "seconds", "requests/s", "speedup"});
  BenchJsonFile artifact("micro_service_throughput", cfg);

  double best_seq = nan_time();
  double best_svc = nan_time();
  double warm_rate = 0.0;
  std::vector<std::uint64_t> routed;

  for (int rep = 0; rep < std::max(1, cfg.reps); ++rep) {
    // --- sequential baseline ---
    WallTimer seq_timer;
    std::size_t seq_nnz = 0;
    for (int r = 0; r < requests; ++r) {
      const auto s = static_cast<std::size_t>(r % nstructures);
      refresh(catalog.a[s], r);
      seq_nnz +=
          masked_spgemm<SRt>(catalog.a[s], *catalog.b[s], *catalog.m[s], opts)
              .nnz();
    }
    const double seq_seconds = seq_timer.seconds();

    // --- sharded service via the pipelined client ---
    ShardConfig shard_cfg;
    shard_cfg.limits.pool_threads = cfg.threads;
    std::vector<std::unique_ptr<ServiceShard<SRt, IT, VT>>> shards;
    std::vector<ShardEndpoint> endpoints;
    for (int i = 0; i < nshards; ++i) {
      shards.push_back(
          std::make_unique<ServiceShard<SRt, IT, VT>>(shard_cfg));
      auto listener = std::make_unique<LoopbackListener>();
      auto* raw = listener.get();
      shards.back()->serve(std::move(listener));
      endpoints.push_back(ShardEndpoint{"shard-" + std::to_string(i),
                                        [raw] { return raw->connect(); }});
    }
    auto backend =
        std::make_shared<mc::ShardedBackend<SRt, IT, VT>>(endpoints);
    mc::MaskedClient<SRt, IT, VT> client(backend);
    auto session = client.open_session(
        {.max_in_flight = static_cast<std::size_t>(inflight)});

    // Register every structure, then verify correctness once: service
    // result vs direct call, bit-identical.
    std::vector<mc::StructureHandle<IT, VT>> handles;
    for (std::size_t s = 0; s < catalog.a.size(); ++s) {
      handles.push_back(session.register_structure(
          mc::StructureSpec<IT, VT>(catalog.b[s]).mask(catalog.m[s])));
      const auto want =
          masked_spgemm<SRt>(catalog.a[s], *catalog.b[s], *catalog.m[s], opts);
      auto got = session.submit(catalog.a[s], handles[s]).get();
      if (!got.ok() || !(got.matrix == want)) {
        std::fprintf(stderr, "service result mismatch on structure %zu\n", s);
        return 1;
      }
    }
    // Stats snapshot after the warm pass: the timed round's hit rate is the
    // delta beyond it.
    std::uint64_t warm_hits = 0, warm_lookups = 0;
    for (int i = 0; i < nshards; ++i) {
      const auto st = shards[static_cast<std::size_t>(i)]->stats();
      warm_hits += st.cache_hits;
      warm_lookups += st.cache_hits + st.cache_misses + st.cache_grows;
    }

    WallTimer svc_timer;
    std::size_t svc_nnz = 0;
    {
      std::vector<std::future<mc::ClientResult<IT, VT>>> futures;
      futures.reserve(static_cast<std::size_t>(requests));
      for (int r = 0; r < requests; ++r) {
        const auto s = static_cast<std::size_t>(r % nstructures);
        refresh(catalog.a[s], r);
        futures.push_back(session.submit(catalog.a[s], handles[s]));
      }
      for (auto& f : futures) svc_nnz += f.get().value().nnz();
    }
    const double svc_seconds = svc_timer.seconds();

    // Result patterns depend only on structure (values here are positive,
    // no cancellation), so the nnz totals of both passes must agree.
    if (svc_nnz != seq_nnz) {
      std::fprintf(stderr, "service nnz mismatch: %zu vs %zu\n", svc_nnz,
                   seq_nnz);
      return 1;
    }

    std::uint64_t hits = 0, lookups = 0;
    for (int i = 0; i < nshards; ++i) {
      const auto st = shards[static_cast<std::size_t>(i)]->stats();
      hits += st.cache_hits;
      lookups += st.cache_hits + st.cache_misses + st.cache_grows;
    }
    warm_rate = lookups > warm_lookups
                    ? static_cast<double>(hits - warm_hits) /
                          static_cast<double>(lookups - warm_lookups)
                    : 0.0;
    routed = backend->stats().routed;

    if (std::isnan(best_seq) || seq_seconds < best_seq) best_seq = seq_seconds;
    if (std::isnan(best_svc) || svc_seconds < best_svc) best_svc = svc_seconds;
  }

  // Client-observed submit->completion percentiles for the service path
  // (the sequential baseline never goes through a Session). Zero when
  // MSX_METRICS=0.
  double lat_p50 = 0.0, lat_p95 = 0.0, lat_p99 = 0.0;
  if (const obs::Histogram* h = obs::Registry::global().find_histogram(
          "msx_client_request_seconds");
      h != nullptr && h->count() > 0) {
    lat_p50 = h->quantile(0.50);
    lat_p95 = h->quantile(0.95);
    lat_p99 = h->quantile(0.99);
  }

  const double seq_rate = requests / best_seq;
  const double svc_rate = requests / best_svc;
  const double speedup = best_seq / best_svc;
  table.add_row({"sequential", Table::num(best_seq * 1e3, 3) + "ms",
                 Table::num(seq_rate, 1), "1.00x"});
  table.add_row({"service", Table::num(best_svc * 1e3, 3) + "ms",
                 Table::num(svc_rate, 1), Table::num(speedup, 2) + "x"});
  table.print();

  std::printf("\n%d requests over %d structures; %d shards, %d in flight; "
              "warm plan-cache hit rate %.0f%% (acceptance: >=90%%)\n",
              requests, nstructures, nshards, inflight, 100.0 * warm_rate);
  std::printf("affinity spread (ok responses per shard):");
  for (std::size_t i = 0; i < routed.size(); ++i) {
    std::printf(" %llu", static_cast<unsigned long long>(routed[i]));
  }
  std::printf("\n");
  std::printf("service request latency p50 %.3fms / p95 %.3fms / "
              "p99 %.3fms\n",
              lat_p50 * 1e3, lat_p95 * 1e3, lat_p99 * 1e3);

  JsonObject record;
  record.field("requests", requests)
      .field("structures", nstructures)
      .field("shards", nshards)
      .field("inflight", inflight)
      .field("sequential_seconds", best_seq)
      .field("service_seconds", best_svc)
      .field("requests_per_sec_sequential", seq_rate)
      .field("requests_per_sec_service", svc_rate)
      .field("speedup", speedup)
      .field("warm_hit_rate", warm_rate)
      .field("latency_p50_seconds", lat_p50)
      .field("latency_p95_seconds", lat_p95)
      .field("latency_p99_seconds", lat_p99);
  artifact.add(record);
  if (!artifact.write(
          cfg.resolved_json_path("BENCH_micro_service_throughput.json"))) {
    return 1;
  }
  return warm_rate >= 0.9 ? 0 : 2;
}
