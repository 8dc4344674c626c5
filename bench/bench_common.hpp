// Shared infrastructure for the figure-reproduction benchmarks.
//
// Every bench binary:
//  * prints a header with system info and its effective parameters,
//  * runs with laptop-safe defaults,
//  * accepts env/CLI knobs (--reps/MSX_REPS, --scale-shift/MSX_SCALE_SHIFT,
//    --threads/MSX_THREADS, ...) to scale toward the paper's configurations.
#pragma once

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/system_info.hpp"
#include "core/masked_spgemm.hpp"
#include "core/options.hpp"
#include "core/plan.hpp"
#include "gen/suite.hpp"
#include "matrix/ops.hpp"
#include "profile/measure.hpp"
#include "profile/perf_profile.hpp"
#include "profile/table.hpp"
#include "semiring/semirings.hpp"

namespace msx::bench {

using IT = SuiteIndex;
using VT = SuiteValue;
using Mat = SuiteMatrix;

inline double nan_time() { return std::numeric_limits<double>::quiet_NaN(); }

struct SchemeSpec {
  std::string name;
  MaskedOptions opts;
};

// The paper's 12 proposed schemes: {MSA, Hash, MCA, Heap, HeapDot, Inner} ×
// {1P, 2P} (§8: "In total, we evaluate 14 algorithms, 10 of which are
// proposed in this work, 2 are based on the previous work").
inline std::vector<SchemeSpec> our_schemes(bool include_two_phase = true) {
  std::vector<SchemeSpec> schemes;
  for (auto algo : {MaskedAlgo::kMSA, MaskedAlgo::kHash, MaskedAlgo::kMCA,
                    MaskedAlgo::kHeap, MaskedAlgo::kHeapDot,
                    MaskedAlgo::kInner}) {
    MaskedOptions o;
    o.algo = algo;
    o.phases = PhaseMode::kOnePhase;
    schemes.push_back({scheme_name(algo, o.phases), o});
    if (include_two_phase) {
      o.phases = PhaseMode::kTwoPhase;
      schemes.push_back({scheme_name(algo, o.phases), o});
    }
  }
  return schemes;
}

// Schemes that support the complemented mask (everything but MCA).
inline std::vector<SchemeSpec> complement_schemes(bool include_two_phase) {
  std::vector<SchemeSpec> schemes;
  for (auto algo : {MaskedAlgo::kMSA, MaskedAlgo::kHash}) {
    MaskedOptions o;
    o.algo = algo;
    o.phases = PhaseMode::kOnePhase;
    schemes.push_back({scheme_name(algo, o.phases), o});
    if (include_two_phase) {
      o.phases = PhaseMode::kTwoPhase;
      schemes.push_back({scheme_name(algo, o.phases), o});
    }
  }
  return schemes;
}

// Common bench configuration gathered from CLI/environment.
struct BenchConfig {
  int reps = 3;
  int warmup = 1;
  int scale_shift = 0;   // workload-suite size knob
  int threads = 0;       // 0 = OpenMP default
  bool csv = false;      // emit machine-readable CSV blocks as well
  bool json = false;     // write a BENCH_*.json artifact (--json[=path])
  std::string json_path; // explicit --json=path; empty = bench default name

  static BenchConfig parse(int argc, char** argv,
                           int default_scale_shift = 0) {
    ArgParser args(argc, argv);
    BenchConfig cfg;
    cfg.reps = static_cast<int>(args.get_int("reps", 3));
    cfg.warmup = static_cast<int>(args.get_int("warmup", 1));
    cfg.scale_shift =
        static_cast<int>(args.get_int("scale-shift", default_scale_shift));
    cfg.threads = static_cast<int>(args.get_int("threads", 0));
    cfg.csv = args.get_bool("csv", false);
    if (args.has("json")) {
      const std::string path = args.get_string("json", "");
      // Truthy/falsey values toggle the artifact (so MSX_JSON=0 disables
      // it); anything else is the output path. A bare --json keeps the
      // bench's default file name.
      if (path == "0" || path == "false" || path == "no" || path == "off") {
        cfg.json = false;
      } else {
        cfg.json = true;
        if (path != "" && path != "1" && path != "true" && path != "yes" &&
            path != "on") {
          cfg.json_path = path;
        }
      }
    }
    return cfg;
  }

  MeasureConfig measure() const {
    MeasureConfig m;
    m.warmup = warmup;
    m.reps = reps;
    return m;
  }

  // Output path for the JSON artifact; empty when --json was not given.
  std::string resolved_json_path(const char* dflt) const {
    if (!json) return {};
    return json_path.empty() ? dflt : json_path;
  }
};

// --- JSON artifacts (CI perf trajectory; see .github/workflows/ci.yml) ---
//
// A BENCH_*.json file is {"meta": {"bench", "host", "threads", "reps",
// "warmup", "scale_shift"}, "records": [{...}, ...]}. Flat records,
// string/number/null values — just enough structure for a dashboard or a jq
// query, no dependency.

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// One flat JSON object, built field by field. NaN (the "scheme rejected this
// configuration" marker) becomes null — JSON has no NaN literal.
class JsonObject {
 public:
  JsonObject& field(const char* key, const std::string& v) {
    return raw(key, "\"" + json_escape(v) + "\"");
  }
  JsonObject& field(const char* key, const char* v) {
    return field(key, std::string(v));
  }
  JsonObject& field(const char* key, double v) {
    if (std::isnan(v)) return raw(key, "null");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(key, buf);
  }
  JsonObject& field(const char* key, long long v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& field(const char* key, int v) {
    return field(key, static_cast<long long>(v));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + json_escape(key) + "\":" + value;
    return *this;
  }
  std::string body_;
};

// Collects records and writes the artifact file.
class BenchJsonFile {
 public:
  BenchJsonFile(const char* bench, const BenchConfig& cfg) {
    meta_.field("bench", bench)
        .field("host", system_info_line())
        .field("threads", cfg.threads > 0 ? cfg.threads : max_threads())
        .field("reps", cfg.reps)
        .field("warmup", cfg.warmup)
        .field("scale_shift", cfg.scale_shift);
  }

  void add(const JsonObject& record) { records_.push_back(record.str()); }

  // Writes to `path` (no-op on empty path, e.g. --json not given). Returns
  // false and reports on I/O failure so CI fails loudly, not with a missing
  // artifact.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write JSON artifact: %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"meta\":%s,\"records\":[", meta_.str().c_str());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ",", records_[i].c_str());
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("\nJSON artifact written to %s (%zu records)\n", path.c_str(),
                records_.size());
    return true;
  }

 private:
  JsonObject meta_;
  std::vector<std::string> records_;
};

inline void print_header(const char* title, const char* paper_ref,
                         const BenchConfig& cfg) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("host: %s\n", system_info_line().c_str());
  std::printf("config: reps=%d warmup=%d scale_shift=%d threads=%d\n",
              cfg.reps, cfg.warmup, cfg.scale_shift,
              cfg.threads > 0 ? cfg.threads : max_threads());
  std::printf("==============================================================\n");
}

// Times one masked SpGEMM configuration; returns NaN if the scheme rejects
// the configuration (e.g. MCA × complement). Planned once outside the timed
// region: the measured kernel excludes algorithm resolution, B's CSC
// transpose and workspace allocation, matching the paper's assumption that
// B is already column-major for the pull-based schemes. The two-phase
// symbolic cache is invalidated inside the timed region so 2P reps pay the
// symbolic pass every call — otherwise the 1P-vs-2P comparisons of §8 would
// measure numeric-only 2P time. The flop-balanced row partition is
// deliberately NOT invalidated: it is schedule infrastructure shared by both
// phase modes, and the iterative workloads these benches model reuse it
// across calls (the point of caching it in the plan). Benches that must
// charge its build per call can add plan.invalidate_partition_cache().
template <class SR>
double time_masked_spgemm(const Mat& a, const Mat& b, const Mat& m,
                          MaskedOptions opts, const BenchConfig& cfg) {
  opts.threads = cfg.threads;
  try {
    auto plan = masked_plan<SR>(a, b, m, opts);
    const auto stats = measure(
        [&] {
          plan.invalidate_symbolic_cache();
          auto c = plan.execute();
          (void)c;
        },
        cfg.measure());
    return best_seconds(stats);
  } catch (const std::invalid_argument&) {
    return nan_time();
  }
}

// Triangle-counting preparation (§8.2), the same pass triangle_count runs:
// relabel by non-increasing degree, keeping the strictly-lower-triangular
// part; the timed kernel is then L .* (L·L) on plus-pair.
inline Mat prepare_tc_lower(const Mat& graph) {
  return relabel_symmetric(graph, degree_order_desc(graph),
                           RelabelPart::kStrictLower);
}

// Renders the profile figures the way the paper's plots read: one series
// per scheme plus the ASCII plot, and optionally CSV.
inline void report_profiles(const ProfileInput& input, const BenchConfig& cfg,
                            double x_max = 2.4) {
  auto series = performance_profiles(input, x_max);
  std::printf("\nPerformance profile (fraction of %zu cases within factor x "
              "of best):\n",
              input.cases.size());
  print_profiles_ascii(series, x_max);
  if (cfg.csv) {
    std::printf("\nCSV:\n");
    print_profiles_csv(series);
  }
}

}  // namespace msx::bench
