// Figure 7: best-performing scheme across the (mask degree × input degree)
// grid on Erdős–Rényi matrices.
//
// The paper varies the degree of the mask (x: 1..1024) and of A and B
// (y: 1..128) for dimensions 2^12..2^22 and colours each cell by the winning
// scheme. Expected regimes (§8.1): Inner when the mask is much sparser than
// the inputs; Heap/HeapDot when the inputs are much sparser than the mask;
// MSA/Hash when the densities are comparable (MSA on smaller matrices, Hash
// on larger ones).
//
// With --json[=PATH] each grid cell becomes a record carrying, alongside the
// winning scheme, one column per execution mode of the adaptive engine:
// its three engines run as whole-product families (sparse = Hash, bitmap =
// MSABitmap, dense = MSADense) plus the engine itself (auto = Adaptive) —
// the per-cell data behind the mode-boundary picture the planner's cost
// model encodes.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "gen/erdos_renyi.hpp"

using namespace msx;
using namespace msx::bench;

int main(int argc, char** argv) {
  const auto cfg = BenchConfig::parse(argc, argv);
  ArgParser args(argc, argv);
  // Dimensions to sweep: exponents of 2. Paper: 12..22; default here: 12, 14.
  const int dim_lo = static_cast<int>(args.get_int("dim-lo", 12));
  const int dim_hi = static_cast<int>(args.get_int("dim-hi", 14));
  const int deg_in_max = static_cast<int>(args.get_int("deg-in-max", 64));
  const int deg_m_max = static_cast<int>(args.get_int("deg-m-max", 256));

  print_header("fig7_density_grid — winning scheme vs mask/input density",
               "Fig. 7 (§8.1)", cfg);

  auto schemes = our_schemes(/*include_two_phase=*/false);

  // The adaptive mode columns, each a 1P family. Only timed when the JSON
  // artifact is requested — the ASCII grid stays the paper's figure.
  struct ModeColumn {
    const char* key;
    MaskedAlgo algo;
  };
  const std::vector<ModeColumn> mode_columns{
      {"seconds_mode_sparse", MaskedAlgo::kHash},
      {"seconds_mode_bitmap", MaskedAlgo::kMSABitmap},
      {"seconds_mode_dense", MaskedAlgo::kMSADense},
      {"seconds_mode_auto", MaskedAlgo::kAdaptive},
  };

  BenchJsonFile artifact("fig7_density_grid", cfg);

  for (int dim = dim_lo; dim <= dim_hi; dim += 2) {
    const IT n = IT{1} << dim;
    std::printf("\ndimension = 2^%d x 2^%d\n", dim, dim);
    std::printf("%-10s", "deg(A,B)\\deg(M)");
    for (int dm = 1; dm <= deg_m_max; dm *= 4) std::printf("%10d", dm);
    std::printf("\n");

    for (int din = 1; din <= deg_in_max; din *= 4) {
      std::printf("%-10d", din);
      auto a = erdos_renyi<IT, VT>(n, n, static_cast<IT>(din), 101);
      auto b = erdos_renyi<IT, VT>(n, n, static_cast<IT>(din), 102);
      for (int dm = 1; dm <= deg_m_max; dm *= 4) {
        auto m = erdos_renyi<IT, VT>(n, n, static_cast<IT>(dm), 103);
        std::string best = "-";
        double best_t = nan_time();
        for (const auto& s : schemes) {
          const double t =
              time_masked_spgemm<PlusTimes<VT>>(a, b, m, s.opts, cfg);
          if (std::isnan(t)) continue;
          if (std::isnan(best_t) || t < best_t) {
            best_t = t;
            best = s.name;
          }
        }
        std::printf("%10s", best.substr(0, best.find('-')).c_str());
        if (cfg.json) {
          JsonObject record;
          record.field("dim_log2", dim)
              .field("deg_in", din)
              .field("deg_mask", dm)
              .field("best_scheme", best)
              .field("best_seconds", best_t);
          for (const auto& col : mode_columns) {
            MaskedOptions o;
            o.algo = col.algo;
            record.field(col.key,
                         time_masked_spgemm<PlusTimes<VT>>(a, b, m, o, cfg));
          }
          artifact.add(record);
        }
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nExpected shape (paper Fig. 7): Inner in the lower-right region\n"
      "(sparse mask, dense inputs); Heap/HeapDot upper-left (dense mask,\n"
      "sparse inputs); MSA/Hash along the comparable-density diagonal.\n");
  if (!artifact.write(cfg.resolved_json_path("BENCH_fig7_density_grid.json"))) {
    return 1;
  }
  return 0;
}
