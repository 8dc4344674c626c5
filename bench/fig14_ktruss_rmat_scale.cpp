// Figure 14: k-truss GFLOPS vs R-MAT scale.
//
// Paper: Inner and SS:DOT increase their rate well with scale (pull-based
// algorithms shine: each pruning round sparsifies the mask); "algorithms
// deemed inefficient for plain SpGEMM can attain quite good performance when
// mask becomes part of the multiplication".
// Rates are over the products ktruss() actually runs: the round-1 support
// product, then the delta products of the later rounds. The ktruss_e2e_ms
// column times the whole ktruss call with default options. --json writes
// two records per scale to BENCH_fig14_ktruss_rmat_scale.json: the GFLOP/s
// of every scheme, and ("kind": "ktruss_e2e") the end-to-end time.
#include <cstdio>
#include <string>

#include "apps/ktruss.hpp"
#include "bench_common.hpp"
#include "core/flops.hpp"
#include "gen/rmat.hpp"

using namespace msx;
using namespace msx::bench;

int main(int argc, char** argv) {
  const auto cfg = BenchConfig::parse(argc, argv);
  ArgParser args(argc, argv);
  const int scale_lo = static_cast<int>(args.get_int("rmat-lo", 8));
  const int scale_hi = static_cast<int>(args.get_int("rmat-hi", 12));
  const int k = static_cast<int>(args.get_int("k", 5));
  print_header("fig14_ktruss_rmat_scale — k-truss GFLOPS vs R-MAT scale",
               "Fig. 14 (§8.3)", cfg);
  std::printf("k = %d; metric: sum(flops of all Masked SpGEMM) / total "
              "Masked SpGEMM time\n\n", k);

  std::vector<SchemeSpec> schemes;
  for (auto algo : {MaskedAlgo::kMSA, MaskedAlgo::kHash, MaskedAlgo::kInner,
                    MaskedAlgo::kMCA}) {
    MaskedOptions o;
    o.algo = algo;
    schemes.push_back({scheme_name(algo, PhaseMode::kOnePhase), o});
  }

  std::vector<std::string> headers{"scale", "n", "iterations"};
  for (const auto& s : schemes) headers.push_back(s.name + "_gflops");
  headers.push_back("ktruss_e2e_ms");
  Table table(headers);
  BenchJsonFile artifact("fig14_ktruss_rmat_scale", cfg);

  for (int scale = scale_lo; scale <= scale_hi; ++scale) {
    const auto graph = rmat<IT, VT>(scale, 42);
    int iters = 0;
    std::vector<std::string> row{std::to_string(scale),
                                 std::to_string(graph.nrows()), ""};
    JsonObject record;
    record.field("graph", "rmat-" + std::to_string(scale))
        .field("scale", scale);
    for (const auto& s : schemes) {
      MaskedOptions o = s.opts;
      o.threads = cfg.threads;
      double best_rate = 0.0;
      for (int rep = 0; rep < cfg.reps; ++rep) {
        const auto r = ktruss(graph, k, o);
        iters = r.iterations;
        best_rate = std::max(best_rate, gflops(r.multiplies, r.seconds_spgemm));
      }
      row.push_back(Table::num(best_rate, 3));
      record.field((s.name + "_gflops").c_str(), best_rate);
    }
    row[2] = std::to_string(iters);
    {
      const auto stats = measure(
          [&] {
            const auto r = ktruss(graph, k);
            (void)r;
          },
          cfg.measure());
      row.push_back(Table::num(best_seconds(stats) * 1e3, 3));
      // A record of its own: below perf_trend's noise floor (small smoke
      // scales) a timing exempts its whole record, and the GFLOP/s fields
      // must stay gated.
      JsonObject e2e;
      e2e.field("graph", "rmat-" + std::to_string(scale))
          .field("kind", "ktruss_e2e")
          .field("scale", scale)
          .field("ktruss_e2e_seconds", best_seconds(stats));
      artifact.add(e2e);
    }
    table.add_row(std::move(row));
    artifact.add(record);
  }
  table.print();
  std::printf("\nExpected shape (paper Fig. 14): pull-based Inner improves\n"
              "its GFLOPS rate with scale and becomes competitive with (or\n"
              "better than) the push-based schemes.\n");
  if (!artifact.write(
          cfg.resolved_json_path("BENCH_fig14_ktruss_rmat_scale.json"))) {
    return 1;
  }
  return 0;
}
