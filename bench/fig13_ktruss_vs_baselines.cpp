// Figure 13: k-truss — our best schemes vs the SS:GB-like baselines.
//
// Paper: MSA-1P and Inner-1P perform significantly better than the SS:GB
// schemes on both platforms. Every scheme and baseline runs the same
// products: the round-1 support product, then the delta products of each
// later round.
#include <cstdio>

#include "apps/ktruss.hpp"
#include "baseline/ssgb_like.hpp"
#include "bench_common.hpp"
#include "core/flops.hpp"

using namespace msx;
using namespace msx::bench;

namespace {

// The k-truss rounds of apps/ktruss.hpp with a baseline as the support
// product, so the baselines run the same round-1 and delta products as the
// schemes; returns the summed baseline-call seconds.
double ktruss_with_baseline(const Mat& graph, int k, bool dot) {
  using SR = PlusPair<std::int64_t>;
  using Support = CSRMatrix<IT, std::int64_t>;
  const auto product = [dot](const Support& a, const Support& b,
                             const Support& m) {
    return dot ? ss_dot_like<SR>(a, b, m) : ss_saxpy_like<SR>(a, b, m);
  };
  return detail::ktruss_rounds(graph, k, product).seconds_spgemm;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = BenchConfig::parse(argc, argv, /*default_scale_shift=*/-2);
  ArgParser args(argc, argv);
  const int k = static_cast<int>(args.get_int("k", 5));
  print_header("fig13_ktruss_vs_baselines — MSA/Inner/Hash-1P vs SS:GB-like",
               "Fig. 13 (§8.3)", cfg);

  std::vector<SchemeSpec> schemes;
  for (auto algo :
       {MaskedAlgo::kMSA, MaskedAlgo::kInner, MaskedAlgo::kHash,
        MaskedAlgo::kMCA}) {
    MaskedOptions o;
    o.algo = algo;
    schemes.push_back({scheme_name(algo, PhaseMode::kOnePhase), o});
  }

  ProfileInput input;
  for (const auto& s : schemes) input.schemes.push_back(s.name);
  input.schemes.push_back("SS:SAXPY");
  input.schemes.push_back("SS:DOT");
  input.seconds.assign(input.schemes.size(), {});

  for (const auto& workload : graph_suite(cfg.scale_shift)) {
    const auto graph = workload.make();
    input.cases.push_back(workload.name);
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      MaskedOptions o = schemes[s].opts;
      o.threads = cfg.threads;
      double best = nan_time();
      for (int rep = 0; rep < cfg.reps; ++rep) {
        const double t = ktruss(graph, k, o).seconds_spgemm;
        if (std::isnan(best) || t < best) best = t;
      }
      input.seconds[s].push_back(best);
    }
    for (int b = 0; b < 2; ++b) {
      double best = nan_time();
      for (int rep = 0; rep < cfg.reps; ++rep) {
        const double t = ktruss_with_baseline(graph, k, /*dot=*/b == 1);
        if (std::isnan(best) || t < best) best = t;
      }
      input.seconds[schemes.size() + static_cast<std::size_t>(b)].push_back(
          best);
    }
  }
  report_profiles(input, cfg, /*x_max=*/1.8);
  std::printf("\nExpected shape (paper Fig. 13): MSA-1P and Inner-1P\n"
              "significantly ahead of both baselines.\n");
  return 0;
}
