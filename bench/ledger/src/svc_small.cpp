// svc-small: many small recurring products served by 2 loopback shards with
// 2 pool threads each, 4 closed-loop clients with one request in flight.
// The kernel is a small part of each request, so client, wire, shard and
// executor overhead dominate; kernel changes should not move it. The
// traced run adds the ledger: the same product set driven through each
// layer in turn, from the stateless call to a two-shard fleet.
#include <cstdio>
#include <future>

#include "client/local_backend.hpp"
#include "common/random.hpp"
#include "core/masked_spgemm.hpp"
#include "gen/erdos_renyi.hpp"
#include "runtime/batch.hpp"
#include "svc.hpp"

namespace ledger {

namespace {

constexpr int kStructures = 12;
constexpr int kSalts = 4;
constexpr int kShards = 2;
constexpr int kPoolThreads = 2;
constexpr int kClients = 4;
constexpr int kSetups = 5;
constexpr int kLedgerPasses = 20;
constexpr double kWarmup = 2.0;
constexpr double kTailPct = 99;

struct Product {
  MatPtr a, b, m;
  Mat want;
};

struct Catalog {
  std::vector<MatPtr> b, m;
  std::vector<std::vector<MatPtr>> a;  // [structure][salt]
  std::vector<std::vector<Mat>> want;  // single-thread references

  Product product(int i, int s) const {
    return {a[i][s], b[i], m[i], want[i][s]};
  }
};

// Structure i is n = 128 + 24 i square: B of degree 6, mask of degree 8, A
// of degree 6 whose values cycle over kSalts salts. Candidates are drawn
// from the seed until both shards serve kStructures / 2 of them.
Catalog make_catalog(std::uint64_t seed) {
  Catalog c;
  Placement placement(kShards);
  int per_shard[kShards] = {0, 0};
  for (int i = 0; i < kStructures; ++i) {
    const auto n = static_cast<IT>(128 + 24 * i);
    for (std::uint64_t j = 0;; ++j) {
      const std::uint64_t s = msx::mix64(seed * 1000003u + 97u * i + j);
      auto b = std::make_shared<const Mat>(
          msx::erdos_renyi<IT, VT>(n, n, 6, s));
      auto m = std::make_shared<const Mat>(
          msx::erdos_renyi<IT, VT>(n, n, 8, s + 1));
      auto a = std::make_shared<const Mat>(
          msx::erdos_renyi<IT, VT>(n, n, 6, s + 2));
      const int shard = placement.shard_of(a, b, m);
      if (shard < 0 || per_shard[shard] >= kStructures / kShards) continue;
      ++per_shard[shard];
      c.b.push_back(b);
      c.m.push_back(m);
      c.a.emplace_back();
      c.want.emplace_back();
      for (int salt = 0; salt < kSalts; ++salt) {
        Mat as = *a;
        auto vals = as.mutable_values();
        for (std::size_t p = 0; p < vals.size(); ++p) {
          vals[p] = 1.0 + static_cast<double>((p + salt) % 5);
        }
        msx::MaskedOptions one;
        one.threads = 1;
        c.want.back().push_back(msx::masked_spgemm<SR>(as, *b, *m, one));
        c.a.back().push_back(std::make_shared<const Mat>(std::move(as)));
      }
      break;
    }
  }
  return c;
}

// Fleet start, registration of every client's structures and the first
// (cold) request per registered structure.
std::unique_ptr<Stack> set_up(const Catalog& cat,
                              std::vector<std::vector<Handle>>& handles,
                              Outcome& out) {
  auto st = std::make_unique<Stack>(kShards, kPoolThreads, kClients);
  handles.assign(kClients, {});
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kStructures; ++i) {
      handles[c].push_back(st->sessions[c].register_structure(
          Spec(cat.b[i]).mask(cat.m[i])));
    }
  }
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kStructures; ++i) {
      auto r = st->sessions[c].submit(cat.a[i][0], handles[c][i]).get();
      out.check(r.ok() && r.matrix == cat.want[i][0], "set-up request");
    }
  }
  return st;
}

// The ledger rows: each layer's median microseconds per request over the
// same 48 products at concurrency 1.
void ledger_rows(const Catalog& cat, Outcome& out) {
  std::vector<Product> ps;
  for (int i = 0; i < kStructures; ++i) {
    for (int s = 0; s < kSalts; ++s) ps.push_back(cat.product(i, s));
  }
  const std::size_t n = ps.size();
  // The stateless and plan rows run single-threaded, as the executor runs
  // a small job; the layers above take default options like the clients.
  msx::MaskedOptions one;
  one.threads = 1;

  const double stateless =
      median_call_us(kLedgerPasses, n, [&](std::size_t i, bool chk) {
        const auto c =
            msx::masked_spgemm<SR>(*ps[i].a, *ps[i].b, *ps[i].m, one);
        if (chk) out.check(c == ps[i].want, "ledger stateless");
      });

  std::vector<msx::MaskedPlan<SR, IT, VT>> plans;
  for (const auto& p : ps) {
    plans.push_back(msx::masked_plan<SR>(*p.a, *p.b, *p.m, one));
  }
  const double plan =
      median_call_us(kLedgerPasses, n, [&](std::size_t i, bool chk) {
        const auto c = plans[i].execute();
        if (chk) out.check(c == ps[i].want, "ledger plan");
      });

  double executor = 0;
  {
    msx::BatchLimits limits;
    limits.pool_threads = kPoolThreads;
    msx::BatchExecutor<SR, IT, VT> exec(limits);
    executor = median_call_us(kLedgerPasses, n, [&](std::size_t i, bool chk) {
      const auto c = exec.submit_shared(ps[i].a, ps[i].b, ps[i].m).get();
      if (chk) out.check(c == ps[i].want, "ledger executor");
    });
  }

  const auto via_session = [&](Session& s, const char* what) {
    std::vector<Handle> hs;
    for (int i = 0; i < kStructures; ++i) {
      hs.push_back(s.register_structure(Spec(cat.b[i]).mask(cat.m[i])));
    }
    return median_call_us(kLedgerPasses, n, [&](std::size_t i, bool chk) {
      auto r = s.submit(ps[i].a, hs[i / kSalts]).get();
      if (chk) out.check(r.ok() && r.matrix == ps[i].want, what);
    });
  };
  double local = 0;
  {
    msx::BatchLimits limits;
    limits.pool_threads = kPoolThreads;
    auto client = msx::client::make_local_client<SR, IT, VT>(limits);
    auto s = client.open_session({.max_in_flight = 1});
    local = via_session(s, "ledger local");
  }
  double sharded[2] = {0, 0};
  for (int shards = 1; shards <= 2; ++shards) {
    Stack st(shards, kPoolThreads, 1);
    sharded[shards - 1] = via_session(st.sessions[0], "ledger sharded");
  }

  out.set("ledger.stateless_us", stateless);
  out.set("ledger.plan_us", plan);
  out.set("ledger.executor_us", executor);
  out.set("ledger.local_us", local);
  out.set("ledger.sharded1_us", sharded[0]);
  out.set("ledger.sharded2_us", sharded[1]);
  out.set("ledger.plan_setup_us", stateless - plan);
  out.set("ledger.runtime_added_us", executor - plan);
  out.set("ledger.client_added_us", local - executor);
  out.set("ledger.wire_added_us", sharded[0] - local);
  out.set("ledger.fanout_added_us", sharded[1] - sharded[0]);
  std::printf("ledger (median us/request, %zu products x %d passes): "
              "stateless %.2f, plan %.2f, executor %.2f, local %.2f, "
              "sharded1 %.2f, sharded2 %.2f\n",
              n, kLedgerPasses, stateless, plan, executor, local, sharded[0],
              sharded[1]);
}

}  // namespace

Outcome run_svc_small(const Config& cfg) {
  Outcome out;
  const Catalog cat = make_catalog(cfg.seed);
  std::printf("svc-small: %d structures (n = 128..%d), %d salts; %d shards x "
              "%d pool threads; %d clients, 1 in flight each\n",
              kStructures, 128 + 24 * (kStructures - 1), kSalts, kShards,
              kPoolThreads, kClients);

  std::vector<std::vector<Handle>> handles;
  std::unique_ptr<Stack> st;
  std::vector<double> setups;
  for (int k = 0; k < (cfg.trace ? 1 : kSetups); ++k) {
    st.reset();
    const std::uint64_t t0 = now_ns();
    st = set_up(cat, handles, out);
    setups.push_back(ns_to_s(now_ns() - t0));
  }

  std::vector<msx::Xoshiro256> rngs;
  for (int c = 0; c < kClients; ++c) {
    rngs.emplace_back(msx::mix64(cfg.seed * 31u + static_cast<unsigned>(c)));
  }
  std::vector<int> turn(kClients, 0);
  auto op = [&](int c, ClientLog& log) {
    const auto i = static_cast<int>(rngs[c].next_below(kStructures));
    const int salt = turn[c]++ % kSalts;
    Sample s;
    s.t0 = now_ns();
    auto fut = st->sessions[c].submit(cat.a[i][salt], handles[c][i]);
    s.t_call = now_ns();
    Result r = fut.get();
    s.t1 = now_ns();
    record_bench_span("bench.query", s);
    ++log.attempted;
    if (!r.ok() || !(r.matrix == cat.want[i][salt])) ++log.failed;
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
  ledger_rows(cat, out);
  return out;
}

}  // namespace ledger
