// svc-2d: products forced through a 2x2 panel grid over 4 loopback shards
// of one pool thread each, B hot-replicated on 2 shards, 2 closed-loop
// clients rotating over 8 A's. Slicing, scatter, bulk panel payloads and the
// client-side merge dominate, and the slowest panel sets the latency; none
// of this runs on the other workloads. 2D is forced because the default
// only splits at 2^26 flops, where each product would take ~60 ms and the
// window would hold too few samples.
#include <cstdio>

#include "core/masked_spgemm.hpp"
#include "gen/rmat.hpp"
#include "svc.hpp"

namespace ledger {

namespace {

constexpr int kScale = 12;
constexpr int kEdgeFactor = 24;
constexpr int kProducts = 8;
constexpr int kShards = 4;
constexpr int kPoolThreads = 1;
constexpr int kReplicas = 2;
constexpr int kClients = 2;
constexpr int kSetups = 5;
constexpr int kLedgerPasses = 3;
constexpr double kWarmup = 2.0;
// ~100 products/s: a 10 s window holds ~1000, so p95 is the highest
// percentile with well over 10 samples beyond it.
constexpr double kTailPct = 95;

msx::MaskedOptions grid_options() {
  msx::MaskedOptions o;
  o.threads = 1;  // each shard is one worker; keep every product serial
  o.dist = msx::Dist2D::kForce;
  o.dist_row_panels = 2;
  o.dist_col_panels = 2;
  return o;
}

}  // namespace

Outcome run_svc_2d(const Config& cfg) {
  Outcome out;
  msx::RmatOptions ro;
  ro.edge_factor = kEdgeFactor;
  const std::uint64_t base = msx::mix64(cfg.seed * 4099u);
  const auto b =
      std::make_shared<const Mat>(msx::rmat<IT, VT>(kScale, base, ro));
  const auto m =
      std::make_shared<const Mat>(msx::rmat<IT, VT>(kScale, base + 1, ro));
  msx::MaskedOptions one;
  one.threads = 1;
  std::vector<MatPtr> as;
  std::vector<Mat> want;
  for (int k = 0; k < kProducts; ++k) {
    as.push_back(std::make_shared<const Mat>(
        msx::rmat<IT, VT>(kScale, base + 100 + static_cast<unsigned>(k), ro)));
    want.push_back(msx::masked_spgemm<SR>(*as.back(), *b, *m, one));
  }
  const msx::MaskedOptions grid = grid_options();
  std::printf("svc-2d: RMAT scale %d ef%d B and mask (nnz %zu, %zu), %d A's; "
              "2x2 grid over %d shards x %d pool thread, B replicated x%d; "
              "%d clients\n",
              kScale, kEdgeFactor, b->nnz(), m->nnz(), kProducts, kShards,
              kPoolThreads, kReplicas, kClients);

  std::unique_ptr<Stack> st;
  std::vector<Handle> handles(kClients);
  std::vector<double> setups;
  for (int k = 0; k < (cfg.trace ? 1 : kSetups); ++k) {
    st.reset();
    const std::uint64_t t0 = now_ns();
    st = std::make_unique<Stack>(kShards, kPoolThreads, kClients);
    for (int c = 0; c < kClients; ++c) {
      handles[c] = st->sessions[c].register_structure(
          Spec(b).mask(m).replicate(kReplicas));
    }
    for (int c = 0; c < kClients; ++c) {
      auto r =
          st->sessions[c].submit(as[c], handles[c], {.masked = grid}).get();
      out.check(r.ok() && r.matrix == want[c], "set-up product");
    }
    setups.push_back(ns_to_s(now_ns() - t0));
  }

  std::vector<int> turn(kClients, 0);
  auto op = [&](int c, ClientLog& log) {
    const int k = (2 * turn[c]++ + c) % kProducts;
    Sample s;
    s.t0 = now_ns();
    auto fut = st->sessions[c].submit(as[k], handles[c], {.masked = grid});
    s.t_call = now_ns();
    Result r = fut.get();
    s.t1 = now_ns();
    record_bench_span("bench.query", s);
    ++log.attempted;
    if (!r.ok() || !(r.matrix == want[k])) ++log.failed;
    log.samples.push_back(s);
  };

  if (!cfg.trace) {
    Window w;
    const auto logs = closed_loop(kClients, kWarmup, cfg.seconds, op, &w);
    const double rss = peak_rss_mb();
    const auto samples = gather(logs, out);
    set_end_to_end(out, w.rates(samples),
                   latencies_ms(samples, OpKind::kQuery), kTailPct,
                   median_setup(setups), rss);
    return out;
  }

  traced_windows(cfg, kClients, op, out);
  set_service_metrics(out, *st, 0);
  st.reset();

  // Ledger rows: one whole product in one thread, on one shard, and on the
  // 2x2 grid, each at concurrency 1.
  std::vector<msx::MaskedPlan<SR, IT, VT>> plans;
  for (const auto& a : as) {
    plans.push_back(msx::masked_plan<SR>(*a, *b, *m, one));
  }
  const double plan_us =
      median_call_us(kLedgerPasses, as.size(), [&](std::size_t i, bool chk) {
        const auto c = plans[i].execute();
        if (chk) out.check(c == want[i], "ledger2d plan");
      });
  plans.clear();
  const auto via = [&](int shards, int replicas, const msx::MaskedOptions& o,
                       const char* what) {
    Stack s(shards, kPoolThreads, 1);
    Handle h = s.sessions[0].register_structure(
        Spec(b).mask(m).replicate(replicas));
    return median_call_us(
        kLedgerPasses, as.size(), [&](std::size_t i, bool chk) {
          auto r = s.sessions[0].submit(as[i], h, {.masked = o}).get();
          if (chk) out.check(r.ok() && r.matrix == want[i], what);
        });
  };
  msx::MaskedOptions single = one;
  single.dist = msx::Dist2D::kNever;
  const double sharded1_us = via(1, 1, single, "ledger2d sharded1");
  const double grid_us = via(kShards, kReplicas, grid, "ledger2d grid");
  out.set("ledger2d.plan_ms", plan_us * 1e-3);
  out.set("ledger2d.sharded1_ms", sharded1_us * 1e-3);
  out.set("ledger2d.grid_ms", grid_us * 1e-3);
  std::printf("ledger2d (median ms/product, %d products x %d passes): plan "
              "%.3f, sharded1 %.3f, grid %.3f\n",
              kProducts, kLedgerPasses, plan_us * 1e-3, sharded1_us * 1e-3,
              grid_us * 1e-3);
  return out;
}

}  // namespace ledger
