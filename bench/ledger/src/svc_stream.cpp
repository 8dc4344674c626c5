// svc-stream: writes beside reads on the svc-small fleet. Each of 4 clients
// owns one live structure and loops: one Session::update with an edge delta
// touching 1% of the rows, then 3 queries on the new version. Delta apply,
// update fan-out and warm-plan migration are on the path here and nowhere
// else, so a change that speeds queries by keeping more per-version state
// but slows updates shows up on this workload.
#include <atomic>
#include <cstdio>

#include "common/random.hpp"
#include "core/delta.hpp"
#include "core/masked_spgemm.hpp"
#include "gen/erdos_renyi.hpp"
#include "matrix/build.hpp"
#include "svc.hpp"

namespace ledger {

namespace {

constexpr IT kN = 4096;
constexpr IT kTouchedRows = kN / 100;
constexpr int kShards = 2;
constexpr int kPoolThreads = 2;
constexpr int kClients = 4;
constexpr int kQueriesPerUpdate = 3;
constexpr int kSampleOneIn = 16;
constexpr int kSetups = 5;
constexpr double kWarmup = 2.0;
constexpr double kTailPct = 99;

using Delta = msx::EdgeDelta<IT, VT>;

// Banded A (row i references columns i-2..i+2): a row-local delta on B
// changes few output rows, which is what lets warm plans migrate cheaply.
Mat banded(IT n) {
  std::vector<msx::Triple<IT, VT>> t;
  for (IT i = 0; i < n; ++i) {
    for (IT j = std::max<IT>(0, i - 2); j <= std::min<IT>(n - 1, i + 2); ++j) {
      t.push_back({i, j, 1.0 + static_cast<VT>((i + j) % 3)});
    }
  }
  return msx::csr_from_triples<IT, VT>(n, n, std::move(t),
                                       msx::DuplicatePolicy::kError);
}

// Moves one edge in each of kTouchedRows random rows: deletes a present
// entry and inserts an absent one, so nnz(B) stays put over a long run.
Delta make_delta(const Mat& b, msx::Xoshiro256& rng) {
  Delta d;
  for (IT k = 0; k < kTouchedRows; ++k) {
    const auto r = static_cast<IT>(rng.next_below(kN));
    const auto row = b.row(r);
    if (row.size() > 0) {
      d.erase(r, row.cols[static_cast<IT>(rng.next_below(
                     static_cast<std::uint64_t>(row.size())))]);
    }
    for (;;) {
      const auto c = static_cast<IT>(rng.next_below(kN));
      if (!std::binary_search(row.cols.begin(), row.cols.end(), c)) {
        d.insert(r, c, 1.0 + static_cast<VT>(rng.next_below(4)));
        break;
      }
    }
  }
  return d;
}

struct Structure {
  MatPtr b0, m;
};

struct Client {
  Handle h;
  msx::Xoshiro256 rng{0};
  std::vector<Delta> deltas;  // every applied update, in version order
  struct Check {
    std::size_t version;  // deltas applied when the query was served
    Mat got;
  };
  std::vector<Check> sampled;
};

}  // namespace

Outcome run_svc_stream(const Config& cfg) {
  Outcome out;
  const auto a = std::make_shared<const Mat>(banded(kN));
  msx::MaskedOptions one;
  one.threads = 1;

  // One structure per client, drawn from the seed until both shards own
  // two of them.
  std::vector<Structure> structs;
  std::vector<Mat> want0;
  {
    Placement placement(kShards);
    int per_shard[kShards] = {0, 0};
    for (std::uint64_t j = 0; structs.size() < kClients; ++j) {
      const std::uint64_t s = msx::mix64(cfg.seed * 7919u + j);
      auto b = std::make_shared<const Mat>(
          msx::erdos_renyi<IT, VT>(kN, kN, 8, s));
      auto m = std::make_shared<const Mat>(
          msx::erdos_renyi<IT, VT>(kN, kN, 10, s + 1));
      const int shard = placement.shard_of(a, b, m);
      if (shard < 0 || per_shard[shard] >= kClients / kShards) continue;
      ++per_shard[shard];
      want0.push_back(msx::masked_spgemm<SR>(*a, *b, *m, one));
      structs.push_back({b, m});
    }
  }
  std::printf("svc-stream: %d clients x one %d-vertex structure (B degree 8, "
              "mask degree 10, banded A); delta moves %d edges; %d queries "
              "per update; %d shards x %d pool threads\n",
              kClients, kN, kTouchedRows, kQueriesPerUpdate, kShards,
              kPoolThreads);

  std::unique_ptr<Stack> st;
  std::vector<Client> clients(kClients);
  std::vector<double> setups;
  for (int k = 0; k < (cfg.trace ? 1 : kSetups); ++k) {
    st.reset();
    const std::uint64_t t0 = now_ns();
    st = std::make_unique<Stack>(kShards, kPoolThreads, kClients);
    for (int c = 0; c < kClients; ++c) {
      clients[c].h = st->sessions[c].register_structure(
          Spec(structs[c].b0).mask(structs[c].m));
    }
    for (int c = 0; c < kClients; ++c) {
      auto r = st->sessions[c].submit(a, clients[c].h).get();
      out.check(r.ok() && r.matrix == want0[c], "set-up query");
    }
    setups.push_back(ns_to_s(now_ns() - t0));
  }
  for (int c = 0; c < kClients; ++c) {
    clients[c].rng = msx::Xoshiro256(
        msx::mix64(cfg.seed * 131u + static_cast<unsigned>(c)));
  }

  std::atomic<std::uint64_t> updates{0};
  auto op = [&](int c, ClientLog& log) {
    Client& cl = clients[c];
    Session& session = st->sessions[c];
    Delta d = make_delta(*cl.h.b(), cl.rng);
    Sample u;
    u.kind = OpKind::kUpdate;
    u.t0 = now_ns();
    ++log.attempted;
    try {
      cl.h = session.update(cl.h, d);
    } catch (const std::exception& e) {
      ++log.failed;
      std::printf("MISMATCH: update rejected: %s\n", e.what());
      return;
    }
    u.t1 = u.t_call = now_ns();
    record_bench_span("bench.update", u);
    log.samples.push_back(u);
    cl.deltas.push_back(std::move(d));
    updates.fetch_add(1, std::memory_order_relaxed);
    for (int q = 0; q < kQueriesPerUpdate; ++q) {
      Sample s;
      s.t0 = now_ns();
      auto fut = session.submit(a, cl.h);
      s.t_call = now_ns();
      Result r = fut.get();
      s.t1 = now_ns();
      record_bench_span("bench.query", s);
      log.samples.push_back(s);
      ++log.attempted;
      if (!r.ok()) {
        ++log.failed;
        continue;
      }
      if (cl.rng.next_below(kSampleOneIn) == 0) {
        cl.sampled.push_back({cl.deltas.size(), std::move(r.matrix)});
      }
    }
  };

  std::vector<Sample> window_samples;
  Window w;
  double rss = 0;
  if (!cfg.trace) {
    const auto logs = closed_loop(kClients, kWarmup, cfg.seconds, op, &w);
    rss = peak_rss_mb();
    window_samples = gather(logs, out);
  } else {
    const auto plain = traced_windows(cfg, kClients, op, out);
    auto upd = latencies_ms(plain, OpKind::kUpdate);
    out.set("client.update.p50_us", median(upd) * 1e3);
    out.set("client.update.tail_us", percentile(upd, kTailPct) * 1e3);
    set_service_metrics(out, *st, static_cast<double>(updates.load()));
  }
  st.reset();

  // Replay every client's deltas from its original B with apply_edge_delta
  // and recompute the sampled queries at the version that served them.
  std::size_t verified = 0;
  for (int c = 0; c < kClients; ++c) {
    const Client& cl = clients[c];
    Mat b = *structs[c].b0;
    std::size_t version = 0;
    for (const auto& chk : cl.sampled) {
      while (version < chk.version) {
        b = msx::apply_edge_delta(b, cl.deltas[version++]);
      }
      const Mat want = msx::masked_spgemm<SR>(*a, b, *structs[c].m, one);
      if (!(want == chk.got)) {
        ++out.failed;
        std::printf("MISMATCH: client %d query at version %zu\n", c, version);
      }
      ++verified;
    }
  }
  std::printf("replayed %llu updates; recomputed %zu sampled queries\n",
              static_cast<unsigned long long>(updates.load()), verified);

  if (!cfg.trace) {
    const auto upd = latencies_ms(window_samples, OpKind::kUpdate);
    std::printf("updates: p50 %.4f ms, p%g %.4f ms over %zu\n", median(upd),
                kTailPct, percentile(upd, kTailPct), upd.size());
    set_end_to_end(out, w.rates(window_samples),
                   latencies_ms(window_samples, OpKind::kQuery), kTailPct,
                   median_setup(setups), rss);
  }
  return out;
}

}  // namespace ledger
