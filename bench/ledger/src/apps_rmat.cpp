// apps-rmat: the paper's §8.2–8.4 applications on one RMAT graph, called
// through the library path with default options by one caller that owns 4
// OpenMP threads. No runtime, client or service code runs here: kernel,
// accumulator and planner changes show, service changes must read flat.
#include <cmath>
#include <cstdio>

#include "apps/bc.hpp"
#include "apps/ktruss.hpp"
#include "apps/tricount.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "core/reference.hpp"
#include "gen/rmat.hpp"
#include "ledger.hpp"

namespace ledger {

namespace {

constexpr int kScale = 14;
constexpr std::uint64_t kGraphSeed = 1;
constexpr int kThreads = 4;
constexpr int kBcSources = 64;
constexpr std::size_t kHubs = 1024;
constexpr int kTruss = 5;
constexpr int kSetups = 3;
// One cycle of the mix: triangle counts, one k-truss, two BC batches.
constexpr int kTcPerCycle = 8;
constexpr int kBcPerCycle = 2;
// The latency sample is the TC solves (8 per cycle, >= 48 in a 10 s
// window); p75 is the highest percentile with >= 10 of them beyond it.
constexpr double kTailPct = 75;

using msx::MaskedAlgo;
using msx::MaskedOptions;

struct Refs {
  std::uint64_t triangles = 0;
  msx::KTrussResult<IT> truss;
  std::vector<double> centrality;
};

bool close_rel(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b)) +
                                 1e-300;
}

bool same_centrality(const std::vector<double>& a,
                     const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!close_rel(a[i], b[i])) return false;
  }
  return true;
}

MaskedAlgo other_family(MaskedAlgo resolved) {
  return resolved == MaskedAlgo::kMSA ? MaskedAlgo::kHash : MaskedAlgo::kMSA;
}

// Sums of one app's solves in a window.
struct AppTally {
  std::vector<double> solve_ms;
  double spgemm_s = 0;
  double total_s = 0;
  double forward_s = 0;
  double multiplies = 0;
};

struct Tallies {
  AppTally tc, kt, bc;
  std::vector<double> cycle_rates;  // solves per second of each cycle
  double seconds = 0;
  double rate() const {
    return static_cast<double>(tc.solve_ms.size() + kt.solve_ms.size() +
                               bc.solve_ms.size()) /
           seconds;
  }
};

class Apps {
 public:
  explicit Apps(std::uint64_t seed)
      : graph_(msx::rmat<IT, VT>(kScale, kGraphSeed)) {
    // BC roots: distinct vertices drawn from the seed among the
    // kHubs highest-degree ones.
    const auto order = msx::degree_order_desc(graph_);
    msx::Xoshiro256 rng(msx::mix64(seed ^ 0x6263u));
    std::vector<char> picked(kHubs, 0);
    while (sources_.size() < static_cast<std::size_t>(kBcSources)) {
      const auto k = static_cast<std::size_t>(rng.next_below(kHubs));
      if (picked[k]) continue;
      picked[k] = 1;
      sources_.push_back(order[k]);
    }
    std::printf("graph: RMAT scale %d ef16, %d vertices, %zu directed edges; "
                "BC batch %d; k-truss k=%d; %d OpenMP threads\n",
                kScale, graph_.nrows(), graph_.nnz(), kBcSources, kTruss,
                msx::max_threads());
  }

  msx::TriCountResult tc() { return msx::triangle_count(graph_, opts_); }
  msx::KTrussResult<IT> kt() { return msx::ktruss(graph_, kTruss, opts_); }
  msx::BCResult bc() {
    return msx::betweenness_centrality(graph_, sources_, opts_);
  }

  // References from other algorithm families, plus the serial oracle of
  // core/reference.hpp for the triangle count.
  Refs references(MaskedAlgo tc_algo, MaskedAlgo kt_algo, Outcome& out) {
    Refs r;
    MaskedOptions o;
    o.algo = other_family(tc_algo);
    r.triangles = msx::triangle_count(graph_, o).triangles;
    const auto lower = msx::tril_strict(
        msx::permute_symmetric(graph_, msx::degree_order_desc(graph_)));
    const auto c = msx::reference_masked_spgemm<msx::PlusPair<std::int64_t>>(
        lower, lower, lower);
    const auto oracle = static_cast<std::uint64_t>(msx::reduce_sum(c));
    out.check(oracle == r.triangles, "TC: other family vs serial oracle");

    o.algo = other_family(kt_algo);
    r.truss = msx::ktruss(graph_, kTruss, o);

    o.algo = MaskedAlgo::kMSA;
    r.centrality = msx::betweenness_centrality(graph_, sources_, o).centrality;
    o.algo = MaskedAlgo::kHash;
    out.check(same_centrality(
                  r.centrality,
                  msx::betweenness_centrality(graph_, sources_, o).centrality),
              "BC: MSA vs Hash families");
    std::printf("references: %llu triangles (%s family + serial oracle); "
                "%zu-edge %d-truss (%s family); BC via MSA and Hash\n",
                static_cast<unsigned long long>(r.triangles),
                msx::to_string(other_family(tc_algo)), r.truss.remaining_edges,
                kTruss, msx::to_string(other_family(kt_algo)));
    return r;
  }

  // Runs whole cycles of the mix until `seconds` have elapsed, checking
  // every result against the references.
  Tallies cycles(double seconds, const Refs& ref, Outcome& out) {
    Tallies t;
    const std::uint64_t t0 = now_ns();
    const auto stop = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    do {
      const std::uint64_t c0 = now_ns();
      for (int i = 0; i < kTcPerCycle; ++i) {
        BenchSpan span("bench.tc");
        const auto r = tc();
        const Sample& s = span.finish();
        out.check(r.triangles == ref.triangles, "TC count");
        add(t.tc, s, r.seconds_spgemm, r.seconds_total, 0,
            static_cast<double>(r.multiplies));
      }
      {
        BenchSpan span("bench.ktruss");
        const auto r = kt();
        const Sample& s = span.finish();
        out.check(r.remaining_edges == ref.truss.remaining_edges &&
                      r.truss == ref.truss.truss,
                  "k-truss edge set");
        add(t.kt, s, r.seconds_spgemm, r.seconds_total, 0,
            static_cast<double>(r.multiplies));
      }
      for (int i = 0; i < kBcPerCycle; ++i) {
        BenchSpan span("bench.bc");
        const auto r = bc();
        const Sample& s = span.finish();
        out.check(same_centrality(r.centrality, ref.centrality), "BC scores");
        add(t.bc, s, 0, r.seconds_total, r.seconds_forward, 0);
      }
      t.cycle_rates.push_back((kTcPerCycle + 1 + kBcPerCycle) /
                              ns_to_s(now_ns() - c0));
    } while (now_ns() < stop);
    t.seconds = ns_to_s(now_ns() - t0);
    return t;
  }

  std::size_t lower_nnz() const { return graph_.nnz() / 2; }
  IT n() const { return graph_.nrows(); }

 private:
  static void add(AppTally& a, const Sample& s, double spgemm, double total,
                  double forward, double multiplies) {
    a.solve_ms.push_back(static_cast<double>(s.t1 - s.t0) * 1e-6);
    a.spgemm_s += spgemm;
    a.total_s += total;
    a.forward_s += forward;
    a.multiplies += multiplies;
  }

  Mat graph_;
  std::vector<IT> sources_;
  MaskedOptions opts_;
};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

}  // namespace

Outcome run_apps_rmat(const Config& cfg) {
  msx::ScopedNumThreads omp(kThreads);
  Outcome out;
  Apps apps(cfg.seed);

  // Set-up: the first cold pass over the three apps, repeated; the results
  // are checked once the references exist.
  std::vector<double> setups;
  std::vector<msx::TriCountResult> tcs;
  std::vector<msx::KTrussResult<IT>> kts;
  std::vector<msx::BCResult> bcs;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t t0 = now_ns();
    tcs.push_back(apps.tc());
    kts.push_back(apps.kt());
    bcs.push_back(apps.bc());
    setups.push_back(ns_to_s(now_ns() - t0));
  }
  const Refs ref = apps.references(tcs[0].algo, kts[0].algo, out);
  for (int i = 0; i < kSetups; ++i) {
    out.check(tcs[i].triangles == ref.triangles, "set-up TC count");
    out.check(kts[i].truss == ref.truss.truss, "set-up k-truss");
    out.check(same_centrality(bcs[i].centrality, ref.centrality), "set-up BC");
  }
  std::printf("resolved: TC %s, k-truss %s; k-truss %d iterations, BC depth "
              "%d\n",
              msx::to_string(tcs[0].algo), msx::to_string(kts[0].algo),
              kts[0].iterations, bcs[0].depth);

  if (!cfg.trace) {
    const double setup_s = median_setup(setups);
    const Tallies t = apps.cycles(cfg.seconds, ref, out);
    std::printf("medians: tc %.3f ms (n=%zu), ktruss %.3f ms (n=%zu), "
                "bc %.3f ms (n=%zu)\n",
                median(t.tc.solve_ms), t.tc.solve_ms.size(),
                median(t.kt.solve_ms), t.kt.solve_ms.size(),
                median(t.bc.solve_ms), t.bc.solve_ms.size());
    set_end_to_end(out, t.cycle_rates, t.tc.solve_ms, kTailPct, setup_s,
                   peak_rss_mb());
    return out;
  }

  // Traced run: an untraced window for the process counters and the
  // throughput baseline, then the traced window.
  const double window = std::min(cfg.seconds, 3.0);
  const ProcUsage u0 = proc_usage();
  HwCounters hw;
  hw.start();
  const Tallies plain = apps.cycles(window, ref, out);
  hw.stop();
  const ProcUsage u1 = proc_usage();
  const double ops = plain.rate() * plain.seconds;
  set_proc_metrics(out, u0, u1, ops);
  hw.print(ops);

  msx::obs::clear_spans();
  msx::obs::set_trace_enabled(true);
  const Tallies t = apps.cycles(window, ref, out);
  msx::obs::set_trace_enabled(false);
  auto spans = msx::obs::collect_spans();
  write_trace(cfg, spans);
  set_trace_metrics(out, analyze_spans(spans));

  out.set("obs.trace_overhead", 1.0 - t.rate() / plain.rate());
  out.set("apps.tc.kernel_share", ratio(t.tc.spgemm_s, t.tc.total_s));
  out.set("apps.ktruss.kernel_share", ratio(t.kt.spgemm_s, t.kt.total_s));
  out.set("apps.bc.forward_share", ratio(t.bc.forward_s, t.bc.total_s));
  out.set("core.tc.gflops", ratio(2.0 * t.tc.multiplies, t.tc.spgemm_s) * 1e-9);
  out.set("core.ktruss.gflops",
          ratio(2.0 * t.kt.multiplies, t.kt.spgemm_s) * 1e-9);
  // Computed bytes of L .* (L·L), not measured traffic: every multiply
  // streams one B entry (index + value), A is read once, the mask's column
  // indices once, and the three row pointers once.
  const double entry = sizeof(IT) + sizeof(VT);
  const double solves = static_cast<double>(t.tc.solve_ms.size());
  const double bytes =
      entry * t.tc.multiplies +
      solves * (entry * static_cast<double>(apps.lower_nnz()) +
                sizeof(IT) * static_cast<double>(apps.lower_nnz()) +
                3.0 * sizeof(IT) * static_cast<double>(apps.n() + 1));
  out.set("core.tc.computed_gbps", ratio(bytes, t.tc.spgemm_s) * 1e-9);
  return out;
}

}  // namespace ledger
