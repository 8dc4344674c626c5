// micro_adaptive — adaptive per-block engine vs every forced mode (ISSUE 10
// acceptance: on the shifting-density sweep the adaptive planner must match
// the fastest forced mode and beat the worst one, with the mode-decision
// counters showing it actually mixed modes; a second execute must re-mode
// from observed timings without a replan).
//
//   ./bench_micro_adaptive [--dim N] [--reps R] [--threads T] [--json[=PATH]]
//
// Three workloads bracket the decision space:
//   dense-mask   high-degree mask and B — bitmap/dense modes win
//   sparse-mask  everything sparse — the hash mode wins
//   shifting     half the rows dense, half sparse — no single mode wins,
//                the per-block planner has to mix
// For each workload a plan runs under each family the engine is built from —
// Hash (labelled both "off" and "sparse"), MSABitmap ("bitmap"), MSADense
// ("dense") — and under the engine itself, Adaptive ("auto"); outputs are
// checked bit-identical against the Hash baseline (hard failure otherwise).
// The forced families record no feedback, so the auto run starts from a
// store that holds nothing for its structure.
#include <cstdio>
#include <string>
#include <vector>

#include "adaptive/feedback.hpp"
#include "adaptive/planner.hpp"
#include "bench_common.hpp"
#include "gen/erdos_renyi.hpp"

using namespace msx;
using namespace msx::bench;

namespace {

struct Workload {
  std::string name;
  Mat a, b, m;
};

// Stacks a dense row region on top of a sparse one, as the k-truss-like
// iteration workloads do once the frontier thins.
Mat stacked_density(IT nrows, IT ncols, IT dense_deg, IT sparse_deg,
                    std::uint64_t seed) {
  const IT half = nrows / 2;
  auto dense = erdos_renyi<IT, VT>(half, ncols, dense_deg, seed);
  auto sparse = erdos_renyi<IT, VT>(nrows - half, ncols, sparse_deg, seed + 1);
  std::vector<IT> rowptr{0};
  std::vector<IT> colidx;
  std::vector<VT> values;
  for (const auto* part : {&dense, &sparse}) {
    for (IT i = 0; i < part->nrows(); ++i) {
      const auto r = part->row(i);
      colidx.insert(colidx.end(), r.cols.begin(), r.cols.end());
      values.insert(values.end(), r.vals.begin(), r.vals.end());
      rowptr.push_back(static_cast<IT>(colidx.size()));
    }
  }
  return Mat(nrows, ncols, std::move(rowptr), std::move(colidx),
             std::move(values));
}

std::vector<Workload> make_workloads(IT dim) {
  std::vector<Workload> w;
  w.push_back({"dense-mask",
               erdos_renyi<IT, VT>(dim, dim, 16, 11),
               erdos_renyi<IT, VT>(dim, dim, dim / 16, 12),
               erdos_renyi<IT, VT>(dim, dim, dim / 8, 13)});
  w.push_back({"sparse-mask",
               erdos_renyi<IT, VT>(dim, dim, 8, 21),
               erdos_renyi<IT, VT>(dim, dim, 6, 22),
               erdos_renyi<IT, VT>(dim, dim, 8, 23)});
  w.push_back({"shifting",
               stacked_density(dim, dim, dim / 8, 3, 31),
               stacked_density(dim, dim, dim / 16, 4, 33),
               erdos_renyi<IT, VT>(dim, dim, dim / 8, 35)});
  return w;
}

struct ModeRun {
  double seconds = 0.0;
  int remodes = 0;
  int hist[adaptive::kBlockModeCount] = {0, 0, 0};
  std::uint64_t feedback_hits = 0;
};

// One measured configuration; `label` is the record's "adaptive" field,
// which perf_trend matches records on.
struct Mode {
  const char* label;
  MaskedAlgo algo;
};

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = BenchConfig::parse(argc, argv);
  ArgParser args(argc, argv);
  const IT dim = static_cast<IT>(
      args.get_int("dim", 1024 << (cfg.scale_shift > 0 ? cfg.scale_shift : 0)));

  print_header("micro_adaptive — per-block mode selection vs forced modes",
               "ISSUE 10 (adaptive per-block execution engine)", cfg);

  using SRt = PlusTimes<VT>;
  const std::vector<Mode> modes{{"off", MaskedAlgo::kHash},
                                {"sparse", MaskedAlgo::kHash},
                                {"bitmap", MaskedAlgo::kMSABitmap},
                                {"dense", MaskedAlgo::kMSADense},
                                {"auto", MaskedAlgo::kAdaptive}};

  BenchJsonFile artifact("micro_adaptive", cfg);
  bool accept_match_best = false;
  bool accept_beat_worst = false;
  bool accept_mixed = false;
  bool accept_remoded = false;

  for (const auto& w : make_workloads(dim)) {
    std::printf("\nworkload %s: %lld x %lld, nnz A/B/M = %zu/%zu/%zu\n",
                w.name.c_str(), static_cast<long long>(dim),
                static_cast<long long>(dim), w.a.nnz(), w.b.nnz(), w.m.nnz());
    Table table({"adaptive", "seconds", "vs off", "remodes", "modes s/b/d"});

    Mat baseline;
    std::vector<std::pair<Mode, ModeRun>> runs;
    for (const auto& mode : modes) {
      MaskedOptions o;
      o.algo = mode.algo;
      o.schedule = Schedule::kFlopBalanced;  // always partition
      o.threads = cfg.threads;
      auto plan = masked_plan<SRt>(w.a, w.b, w.m, o);

      ModeRun run;
      const auto before = adaptive::FeedbackStore::global().stats();
      Mat c = plan.execute();  // warm-up: plans modes, records first timings
      for (int rep = 0; rep < std::max(1, cfg.reps); ++rep) {
        WallTimer t;
        c = plan.execute();
        const double s = t.seconds();
        if (rep == 0 || s < run.seconds) run.seconds = s;
        run.remodes += plan.last_remodes();
      }
      const auto after = adaptive::FeedbackStore::global().stats();
      run.feedback_hits = after.feedback_hits - before.feedback_hits;
      const auto h = plan.adaptive_mode_histogram();
      for (int i = 0; i < adaptive::kBlockModeCount; ++i) run.hist[i] = h[i];

      if (runs.empty()) {
        baseline = std::move(c);
      } else if (!(baseline == c)) {
        std::fprintf(stderr,
                     "BIT-IDENTITY FAILURE: workload %s adaptive=%s\n",
                     w.name.c_str(), mode.label);
        return 1;
      }
      runs.emplace_back(mode, run);
    }

    double off_s = 0.0, auto_s = 0.0;
    double best_forced = 0.0, worst_forced = 0.0;
    const ModeRun* auto_run = nullptr;
    for (const auto& [mode, run] : runs) {
      const std::string label = mode.label;
      if (label == "off") off_s = run.seconds;
      if (label == "auto") {
        auto_s = run.seconds;
        auto_run = &run;
      }
      if (label == "sparse" || label == "bitmap" || label == "dense") {
        if (best_forced == 0.0 || run.seconds < best_forced) {
          best_forced = run.seconds;
        }
        if (run.seconds > worst_forced) worst_forced = run.seconds;
      }
    }

    for (const auto& [mode, run] : runs) {
      table.add_row({mode.label, Table::num(run.seconds * 1e3, 3) + "ms",
                     Table::num(off_s / run.seconds, 2) + "x",
                     std::to_string(run.remodes),
                     std::to_string(run.hist[0]) + "/" +
                         std::to_string(run.hist[1]) + "/" +
                         std::to_string(run.hist[2])});
      JsonObject record;
      record.field("workload", w.name)
          .field("dim", static_cast<long long>(dim))
          .field("adaptive", mode.label)
          .field("seconds", run.seconds)
          .field("speedup_vs_off", off_s / run.seconds)
          .field("remodes", run.remodes)
          .field("feedback_hits", static_cast<long long>(run.feedback_hits))
          .field("blocks_sparse", run.hist[0])
          .field("blocks_bitmap", run.hist[1])
          .field("blocks_dense", run.hist[2]);
      artifact.add(record);
    }
    table.print();

    if (w.name == "shifting") {
      // 10% tolerance: "matches the fastest forced mode" under timer noise.
      accept_match_best = auto_s <= best_forced * 1.10;
      accept_beat_worst = auto_s < worst_forced;
      int used = 0;
      for (int i = 0; i < adaptive::kBlockModeCount; ++i) {
        used += auto_run->hist[i] > 0 ? 1 : 0;
      }
      accept_mixed = used >= 2;
      accept_remoded = auto_run->feedback_hits > 0;
      std::printf("\nshifting-density acceptance:\n"
                  "  auto %.3fms vs best forced %.3fms (<=1.10x: %s)\n"
                  "  auto vs worst forced %.3fms (faster: %s)\n"
                  "  mixed modes in one plan: %s; re-mode used feedback: %s\n",
                  auto_s * 1e3, best_forced * 1e3,
                  accept_match_best ? "PASS" : "FAIL", worst_forced * 1e3,
                  accept_beat_worst ? "PASS" : "FAIL",
                  accept_mixed ? "PASS" : "FAIL",
                  accept_remoded ? "PASS" : "FAIL");
    }
  }

  JsonObject verdict;
  verdict.field("workload", "acceptance")
      .field("adaptive", "auto")
      .field("match_best_forced", accept_match_best ? 1 : 0)
      .field("beat_worst_forced", accept_beat_worst ? 1 : 0)
      .field("mixed_modes", accept_mixed ? 1 : 0)
      .field("feedback_remode", accept_remoded ? 1 : 0);
  artifact.add(verdict);
  if (!artifact.write(cfg.resolved_json_path("BENCH_micro_adaptive.json"))) {
    return 1;
  }
  return 0;
}
