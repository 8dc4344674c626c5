// sharded_service — a pipelined MaskedClient fronting a fleet of
// masked-SpGEMM shards (ISSUE 4 service layer, ISSUE 5 client API).
//
// Spins up N shard instances (each a ServiceShard: wire server loop over a
// BatchExecutor + structure-keyed PlanCache), fronts them with a
// MaskedClient session over the ShardedBackend, and serves a mixed request
// stream:
//
//   * each catalog structure is REGISTERED once per shard connection — the
//     stationary operands cross the wire once, then every submit ships only
//     the refreshed A;
//   * submits are pipelined (bounded in-flight depth) over one connection
//     per shard, completions matched by request id;
//   * every result is verified bit-identical to a direct masked_spgemm call;
//   * killing a shard mid-stream (--kill) demonstrates failover: its
//     in-flight requests re-submit to the next shard on the ring (where the
//     structures re-register lazily) — nothing lost, nothing duplicated.
//
// Transports: loopback shard instances by default (one process, zero
// setup); --unix PATHPREFIX serves each shard on a Unix socket instead, so
// clients in other processes can connect to the same fleet.
//
// Usage:
//   ./sharded_service                         # 4 shards, 96 requests
//   ./sharded_service --shards 8 --requests 256 --kill 1
//   ./sharded_service --unix /tmp/msx-shard   # sockets at /tmp/msx-shard.N
//   ./sharded_service --trace out.json        # + one traced 2D product:
//       a forced 2-shard 2D panel product is run with request tracing on and
//       the merged client + shard + executor span timeline is written as
//       Chrome trace-event JSON (load in Perfetto / chrome://tracing)
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "client/sharded_backend.hpp"
#include "common/cli.hpp"
#include "common/timer.hpp"
#include "core/masked_spgemm.hpp"
#include "gen/erdos_renyi.hpp"
#include "obs/trace.hpp"
#include "service/shard.hpp"

using IT = int32_t;
using VT = double;
using SR = msx::PlusTimes<VT>;
using Mat = msx::CSRMatrix<IT, VT>;
using Shard = msx::service::ServiceShard<SR, IT, VT>;
namespace mc = msx::client;

int main(int argc, char** argv) {
  msx::ArgParser args(argc, argv);
  const int nshards = static_cast<int>(args.get_int("shards", 4));
  const int nrequests = static_cast<int>(args.get_int("requests", 96));
  const int ncatalog = static_cast<int>(args.get_int("catalog", 8));
  const int kill = static_cast<int>(args.get_int("kill", -1));
  const std::string unix_prefix = args.get_string("unix", "");
  const std::string trace_path = args.get_string("trace", "");

  // --- fleet ---
  msx::service::ShardConfig cfg;
  cfg.limits.max_pending_jobs = 256;  // bounded queue: overload degrades
  cfg.limits.admission = msx::AdmissionPolicy::kReject;  // ... to kOverloaded
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<msx::service::ShardEndpoint> endpoints;
  for (int i = 0; i < nshards; ++i) {
    cfg.name = "shard-" + std::to_string(i);  // trace/metrics component label
    shards.push_back(std::make_unique<Shard>(cfg));
    if (unix_prefix.empty()) {
      auto listener = std::make_unique<msx::service::LoopbackListener>();
      auto* raw = listener.get();
      shards.back()->serve(std::move(listener));
      endpoints.push_back({"shard-" + std::to_string(i),
                           [raw] { return raw->connect(); }});
    } else {
      const std::string path = unix_prefix + "." + std::to_string(i);
      shards.back()->serve(msx::service::listen_unix(path));
      endpoints.push_back({path, [path] {
                             return msx::service::connect_unix(path);
                           }});
    }
  }
  auto backend = std::make_shared<mc::ShardedBackend<SR, IT, VT>>(endpoints);
  mc::MaskedClient<SR, IT, VT> client(backend);
  auto session = client.open_session({.max_in_flight = 16});
  std::printf("sharded_service: %d shards (%s transport), %d requests over "
              "%d structures, 16 in flight\n",
              nshards, unix_prefix.empty() ? "loopback" : "unix-socket",
              nrequests, ncatalog);

  // --- catalog of recurring request structures, registered once ---
  struct Entry {
    Mat a;
    std::shared_ptr<const Mat> b, m;
    mc::StructureHandle<IT, VT> handle;
  };
  std::vector<Entry> catalog;
  for (int k = 0; k < ncatalog; ++k) {
    const IT rows = 140 + 28 * static_cast<IT>(k);
    Entry e;
    e.a = msx::erdos_renyi<IT, VT>(rows, rows, 6, 500 + k);
    e.b = std::make_shared<const Mat>(
        msx::erdos_renyi<IT, VT>(rows, rows, 6, 600 + k));
    e.m = std::make_shared<const Mat>(
        msx::erdos_renyi<IT, VT>(rows, rows, 8, 700 + k));
    e.handle =
        session.register_structure(mc::StructureSpec<IT, VT>(e.b).mask(e.m));
    catalog.push_back(std::move(e));
  }

  // --- pipelined stream, verified bit-identical ---
  msx::WallTimer timer;
  int mismatches = 0;
  std::vector<std::pair<Mat, std::future<mc::ClientResult<IT, VT>>>> inflight;
  for (int r = 0; r < nrequests; ++r) {
    auto& e = catalog[static_cast<std::size_t>((r * 5 + 1) % ncatalog)];
    // Fresh numerics each request (structure — and so affinity — is stable).
    auto vals = e.a.mutable_values();
    for (std::size_t p = 0; p < vals.size(); ++p) {
      vals[p] = 1.0 + static_cast<double>((p + static_cast<std::size_t>(r)) % 9);
    }
    if (kill >= 0 && kill < nshards && r == nrequests / 2) {
      std::printf("killing shard %d mid-stream (in-flight failover)\n", kill);
      shards[static_cast<std::size_t>(kill)]->stop();
    }
    inflight.emplace_back(msx::masked_spgemm<SR>(e.a, *e.b, *e.m),
                          session.submit(e.a, e.handle));
  }
  for (auto& [want, fut] : inflight) {
    auto res = fut.get();
    if (!res.ok() || !(res.matrix == want)) ++mismatches;
  }
  const double seconds = timer.seconds();

  // --- report ---
  const auto bs = backend->stats();
  std::printf("\n%-10s %10s %10s %10s %10s %10s\n", "shard", "ok", "warm%",
              "jobs", "regs", "cacheMB");
  for (int i = 0; i < nshards; ++i) {
    if (kill >= 0 && i == kill) {
      std::printf("%-10s %10llu %10s %10s %10s %10s   (killed)\n",
                  ("shard-" + std::to_string(i)).c_str(),
                  static_cast<unsigned long long>(
                      bs.routed[static_cast<std::size_t>(i)]),
                  "-", "-", "-", "-");
      continue;
    }
    const auto st = shards[static_cast<std::size_t>(i)]->stats();
    std::printf("%-10s %10llu %10.0f %10llu %10llu %10.2f\n",
                ("shard-" + std::to_string(i)).c_str(),
                static_cast<unsigned long long>(
                    bs.routed[static_cast<std::size_t>(i)]),
                100.0 * st.warm_hit_rate(),
                static_cast<unsigned long long>(st.jobs_completed),
                static_cast<unsigned long long>(st.registrations),
                static_cast<double>(st.cache_bytes) / (1024.0 * 1024.0));
  }
  std::printf("\n%d requests in %.3fs (%.1f requests/s), %d mismatches, "
              "%llu failover re-submissions, %llu overload reroutes\n",
              nrequests, seconds, nrequests / seconds, mismatches,
              static_cast<unsigned long long>(bs.failover_resubmits),
              static_cast<unsigned long long>(bs.overload_reroutes));
  if (mismatches != 0) {
    std::printf("FAILED: service results diverged from direct calls\n");
    return 1;
  }
  std::printf("every pipelined result was bit-identical to the direct "
              "masked_spgemm call\n");

  // --- optional: one traced, forced-2D product -> Chrome trace JSON ---
  if (!trace_path.empty()) {
    if (nshards < 2) {
      std::printf("--trace needs at least 2 shards (have %d)\n", nshards);
      return 1;
    }
    // Trace exactly one request so the file holds a single trace id whose
    // spans cover the client (submit, wire.send, 2d.scatter, 2d.merge),
    // every shard that served a panel (shard.request) and the executor
    // phases under them (exec.queue, exec.run, phase.*). Loopback shards
    // live in this process, so collect_spans() sees all components at once.
    msx::obs::set_trace_enabled(true);
    msx::obs::clear_spans();
    auto& e = catalog[0];
    // Replicated panels make every shard a candidate; the load-scored
    // placement then spreads the panel tasks across the fleet, so the trace
    // shows more than one shard track.
    auto traced_handle = session.register_structure(
        mc::StructureSpec<IT, VT>(e.b).mask(e.m).replicate(nshards));
    mc::SubmitOptions traced;
    traced.masked.dist = msx::Dist2D::kForce;
    traced.masked.dist_row_panels = 2;
    traced.masked.dist_col_panels = 2 * nshards;
    auto res = session.submit(e.a, traced_handle, traced).get();
    msx::obs::set_trace_enabled(false);
    if (!res.ok() ||
        !(res.matrix == msx::masked_spgemm<SR>(e.a, *e.b, *e.m))) {
      std::printf("FAILED: traced 2D product diverged from the direct call\n");
      return 1;
    }
    const auto spans = msx::obs::collect_spans();
    if (!msx::obs::write_chrome_trace(trace_path)) {
      std::printf("FAILED: could not write trace to %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote %zu spans (one 2D product across the fleet) to %s — "
                "open in Perfetto or chrome://tracing\n",
                spans.size(), trace_path.c_str());
  }
  return 0;
}
