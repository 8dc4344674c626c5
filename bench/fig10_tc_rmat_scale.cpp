// Figure 10: Triangle Counting GFLOPS as a function of R-MAT scale.
//
// Paper: scales 8–20, Graph500 parameters, GFLOPS = 2·flops/time; MSA-1P
// obtains the highest rates, Hash-1P and MCA-1P similar trends; the SS:GB
// baselines start far behind and SS:SAXPY closes in at large scales.
// The tc_e2e_ms column times the whole triangle_count call (degree order,
// relabel, plan and masked sum) with default options. --json writes two
// records per scale to BENCH_fig10_tc_rmat_scale.json: the GFLOP/s of every
// scheme, and ("kind": "tc_e2e") the end-to-end time.
#include <cstdio>
#include <string>

#include "apps/tricount.hpp"
#include "baseline/ssgb_like.hpp"
#include "bench_common.hpp"
#include "core/flops.hpp"
#include "gen/rmat.hpp"

using namespace msx;
using namespace msx::bench;

int main(int argc, char** argv) {
  const auto cfg = BenchConfig::parse(argc, argv);
  ArgParser args(argc, argv);
  const int scale_lo = static_cast<int>(args.get_int("rmat-lo", 8));
  const int scale_hi = static_cast<int>(args.get_int("rmat-hi", 13));
  print_header("fig10_tc_rmat_scale — TC GFLOPS vs R-MAT scale",
               "Fig. 10 (§8.2)", cfg);

  std::vector<SchemeSpec> schemes;
  for (auto algo : {MaskedAlgo::kMSA, MaskedAlgo::kHash, MaskedAlgo::kMCA}) {
    MaskedOptions o;
    o.algo = algo;
    schemes.push_back({scheme_name(algo, PhaseMode::kOnePhase), o});
  }

  std::vector<std::string> headers{"scale", "n", "nnz(L)", "mflops"};
  for (const auto& s : schemes) headers.push_back(s.name + "_gflops");
  headers.push_back("SS:SAXPY_gflops");
  headers.push_back("SS:DOT_gflops");
  headers.push_back("tc_e2e_ms");
  Table table(headers);
  BenchJsonFile artifact("fig10_tc_rmat_scale", cfg);

  for (int scale = scale_lo; scale <= scale_hi; ++scale) {
    const auto graph = rmat<IT, VT>(scale, 42);
    const auto lower = prepare_tc_lower(graph);
    const std::size_t mult = total_flops(lower, lower);

    std::vector<std::string> row{std::to_string(scale),
                                 std::to_string(graph.nrows()),
                                 std::to_string(lower.nnz()),
                                 Table::num(static_cast<double>(mult) / 1e6, 2)};
    JsonObject record;
    record.field("graph", "rmat-" + std::to_string(scale))
        .field("scale", scale);
    for (const auto& s : schemes) {
      const double t = time_masked_spgemm<PlusPair<std::int64_t>>(
          lower, lower, lower, s.opts, cfg);
      row.push_back(Table::num(gflops(mult, t), 3));
      record.field((s.name + "_gflops").c_str(), gflops(mult, t));
    }
    {
      const auto stats = measure(
          [&] {
            auto c = ss_saxpy_like<PlusPair<std::int64_t>>(lower, lower, lower);
            (void)c;
          },
          cfg.measure());
      row.push_back(Table::num(gflops(mult, best_seconds(stats)), 3));
      record.field("ss_saxpy_gflops", gflops(mult, best_seconds(stats)));
    }
    {
      const auto stats = measure(
          [&] {
            auto c = ss_dot_like<PlusPair<std::int64_t>>(lower, lower, lower);
            (void)c;
          },
          cfg.measure());
      row.push_back(Table::num(gflops(mult, best_seconds(stats)), 3));
      record.field("ss_dot_gflops", gflops(mult, best_seconds(stats)));
    }
    {
      const auto stats = measure(
          [&] {
            const auto r = triangle_count(graph);
            (void)r;
          },
          cfg.measure());
      row.push_back(Table::num(best_seconds(stats) * 1e3, 3));
      // A record of its own: below perf_trend's noise floor (small smoke
      // scales) a timing exempts its whole record, and the GFLOP/s fields
      // must stay gated.
      JsonObject e2e;
      e2e.field("graph", "rmat-" + std::to_string(scale))
          .field("kind", "tc_e2e")
          .field("scale", scale)
          .field("tc_e2e_seconds", best_seconds(stats));
      artifact.add(e2e);
    }
    table.add_row(std::move(row));
    artifact.add(record);
  }
  table.print();
  std::printf("\nExpected shape (paper Fig. 10): MSA-1P on top, Hash/MCA-1P\n"
              "close with the same growth trend; baselines weakest at small\n"
              "scales with SS:SAXPY catching up as scale grows.\n");
  if (!artifact.write(
          cfg.resolved_json_path("BENCH_fig10_tc_rmat_scale.json"))) {
    return 1;
  }
  return 0;
}
