// msx_ledger — one workload of the layered performance ledger per process.
//
//   msx_ledger --workload apps-rmat|svc-small|svc-stream|svc-2d
//              --seed N --seconds S --trace 0|1 [--out DIR]
//   msx_ledger --self-test       percentile and span self-time checks
//   msx_ledger --list-metrics    the metric catalogue as JSON
//
// Human-readable lines go to stdout first; the last line is the JSON result
// ({"correct", "attempted", "failed", "metrics"}). The exit code is 0 only
// when every checked result was correct.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/cli.hpp"
#include "common/system_info.hpp"
#include "ledger.hpp"

int main(int argc, char** argv) {
  msx::ArgParser args(argc, argv);
  if (args.has("self-test")) {
    const int failures = ledger::self_test();
    std::printf("%d failed checks\n", failures);
    return failures == 0 ? 0 : 1;
  }
  if (args.has("list-metrics")) {
    ledger::print_catalogue();
    return 0;
  }

  ledger::Config cfg;
  cfg.workload = args.get_string("workload", "");
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.seconds = static_cast<double>(args.get_int("seconds", 10));
  cfg.trace = args.get_int("trace", 0) != 0;
  cfg.out_dir = args.get_string("out", ".");
  if (cfg.seconds <= 0) {
    std::fprintf(stderr, "msx_ledger: --seconds must be positive\n");
    return 2;
  }

  // Spans are recorded only inside the traced window, which sets the flag
  // itself; rings are sized so none of the window's spans is overwritten.
  msx::obs::set_trace_enabled(false);
  if (cfg.trace) setenv("MSX_TRACE_RING", "131072", /*overwrite=*/0);

  std::printf("msx_ledger workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("host: %s\n", msx::system_info_line().c_str());

  ledger::Outcome out;
  if (cfg.workload == "apps-rmat") {
    out = ledger::run_apps_rmat(cfg);
  } else if (cfg.workload == "svc-small") {
    out = ledger::run_svc_small(cfg);
  } else if (cfg.workload == "svc-stream") {
    out = ledger::run_svc_stream(cfg);
  } else if (cfg.workload == "svc-2d") {
    out = ledger::run_svc_2d(cfg);
  } else {
    std::fprintf(stderr, "msx_ledger: unknown --workload '%s'\n",
                 cfg.workload.c_str());
    return 2;
  }
  std::printf("checked %llu results, %llu wrong\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  ledger::print_result(out, cfg.trace);
  return out.failed == 0 ? 0 : 1;
}
