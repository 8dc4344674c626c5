#include "core/options.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace msx {

namespace {

std::string lower(const std::string& name) {
  std::string s = name;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

void validate_masked_options(const MaskedOptions& opts) {
  if (opts.algo == MaskedAlgo::kHeapDot && opts.heap_ninspect != 1 &&
      opts.heap_ninspect != kNInspectInfinity) {
    throw std::invalid_argument(
        "MaskedOptions: heap_ninspect has no effect under kHeapDot (which "
        "always inspects to infinity); use kHeap to choose a finite "
        "look-ahead");
  }
  if (opts.chunk < 0) {
    throw std::invalid_argument(
        "MaskedOptions: chunk must be >= 0 (0 = library default)");
  }
  if (opts.dist_row_panels < 0 || opts.dist_col_panels < 0) {
    throw std::invalid_argument(
        "MaskedOptions: panel counts must be >= 0 (0 = automatic)");
  }
}

const char* to_string(MaskedAlgo a) {
  switch (a) {
    case MaskedAlgo::kMSA: return "MSA";
    case MaskedAlgo::kHash: return "Hash";
    case MaskedAlgo::kMCA: return "MCA";
    case MaskedAlgo::kHeap: return "Heap";
    case MaskedAlgo::kHeapDot: return "HeapDot";
    case MaskedAlgo::kInner: return "Inner";
    case MaskedAlgo::kHybrid: return "Hybrid";
    case MaskedAlgo::kMSABitmap: return "MSAB";
    case MaskedAlgo::kAuto: return "Auto";
    case MaskedAlgo::kMSADense: return "MSAD";
    case MaskedAlgo::kAdaptive: return "Adaptive";
  }
  return "?";
}

const char* to_string(PhaseMode p) {
  return p == PhaseMode::kOnePhase ? "1P" : "2P";
}

const char* to_string(MaskKind k) {
  return k == MaskKind::kMask ? "mask" : "complement";
}

const char* to_string(CostModel c) {
  switch (c) {
    case CostModel::kAuto: return "auto";
    case CostModel::kFlops: return "flops";
    case CostModel::kMaskNnz: return "masknnz";
  }
  return "?";
}

Schedule schedule_from_string(const std::string& name) {
  const std::string s = lower(name);
  if (s == "auto") return Schedule::kAuto;
  if (s == "static") return Schedule::kStatic;
  if (s == "dynamic") return Schedule::kDynamic;
  if (s == "guided") return Schedule::kGuided;
  if (s == "flopbalanced" || s == "flop-balanced") {
    return Schedule::kFlopBalanced;
  }
  throw std::invalid_argument("unknown schedule: " + name);
}

CostModel cost_model_from_string(const std::string& name) {
  const std::string s = lower(name);
  if (s == "auto") return CostModel::kAuto;
  if (s == "flops") return CostModel::kFlops;
  if (s == "masknnz" || s == "mask-nnz") return CostModel::kMaskNnz;
  throw std::invalid_argument("unknown cost model: " + name);
}

MaskedAlgo algo_from_string(const std::string& name) {
  const std::string s = lower(name);
  if (s == "msa") return MaskedAlgo::kMSA;
  if (s == "hash") return MaskedAlgo::kHash;
  if (s == "mca") return MaskedAlgo::kMCA;
  if (s == "heap") return MaskedAlgo::kHeap;
  if (s == "heapdot") return MaskedAlgo::kHeapDot;
  if (s == "inner") return MaskedAlgo::kInner;
  if (s == "hybrid") return MaskedAlgo::kHybrid;
  if (s == "msab" || s == "msabitmap") return MaskedAlgo::kMSABitmap;
  if (s == "auto") return MaskedAlgo::kAuto;
  if (s == "msad" || s == "msadense") return MaskedAlgo::kMSADense;
  if (s == "adaptive") return MaskedAlgo::kAdaptive;
  throw std::invalid_argument("unknown masked SpGEMM algorithm: " + name);
}

std::string scheme_name(MaskedAlgo a, PhaseMode p) {
  return std::string(to_string(a)) + "-" + to_string(p);
}

}  // namespace msx
