// Enum round-trips, scheme-name golden strings and option validation.
#include "core/options.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace msx {
namespace {

std::vector<MaskedAlgo> every_algo() {
  return {MaskedAlgo::kMSA,    MaskedAlgo::kHash,      MaskedAlgo::kMCA,
          MaskedAlgo::kHeap,   MaskedAlgo::kHeapDot,   MaskedAlgo::kInner,
          MaskedAlgo::kHybrid, MaskedAlgo::kMSABitmap, MaskedAlgo::kAuto,
          MaskedAlgo::kMSADense, MaskedAlgo::kAdaptive};
}

TEST(Options, AlgoStringRoundTripsForEveryValue) {
  for (MaskedAlgo a : every_algo()) {
    EXPECT_EQ(algo_from_string(to_string(a)), a) << to_string(a);
  }
}

TEST(Options, AlgoParsingIsCaseInsensitiveWithAliases) {
  EXPECT_EQ(algo_from_string("HEAPDOT"), MaskedAlgo::kHeapDot);
  EXPECT_EQ(algo_from_string("Msa"), MaskedAlgo::kMSA);
  EXPECT_EQ(algo_from_string("msab"), MaskedAlgo::kMSABitmap);
  EXPECT_EQ(algo_from_string("msabitmap"), MaskedAlgo::kMSABitmap);
  EXPECT_EQ(algo_from_string("MSADense"), MaskedAlgo::kMSADense);
  EXPECT_EQ(algo_from_string("ADAPTIVE"), MaskedAlgo::kAdaptive);
  EXPECT_THROW(algo_from_string("notanalgo"), std::invalid_argument);
}

TEST(Options, SchemeNameGoldenStrings) {
  EXPECT_EQ(scheme_name(MaskedAlgo::kMSA, PhaseMode::kOnePhase), "MSA-1P");
  EXPECT_EQ(scheme_name(MaskedAlgo::kHash, PhaseMode::kTwoPhase), "Hash-2P");
  EXPECT_EQ(scheme_name(MaskedAlgo::kMCA, PhaseMode::kOnePhase), "MCA-1P");
  EXPECT_EQ(scheme_name(MaskedAlgo::kHeap, PhaseMode::kTwoPhase), "Heap-2P");
  EXPECT_EQ(scheme_name(MaskedAlgo::kHeapDot, PhaseMode::kOnePhase),
            "HeapDot-1P");
  EXPECT_EQ(scheme_name(MaskedAlgo::kInner, PhaseMode::kTwoPhase),
            "Inner-2P");
  EXPECT_EQ(scheme_name(MaskedAlgo::kHybrid, PhaseMode::kOnePhase),
            "Hybrid-1P");
  EXPECT_EQ(scheme_name(MaskedAlgo::kMSABitmap, PhaseMode::kOnePhase),
            "MSAB-1P");
  EXPECT_EQ(scheme_name(MaskedAlgo::kAuto, PhaseMode::kTwoPhase), "Auto-2P");
  EXPECT_EQ(scheme_name(MaskedAlgo::kMSADense, PhaseMode::kOnePhase),
            "MSAD-1P");
  EXPECT_EQ(scheme_name(MaskedAlgo::kAdaptive, PhaseMode::kTwoPhase),
            "Adaptive-2P");
}

TEST(Options, ScheduleStringRoundTripsForEveryValue) {
  for (Schedule s : {Schedule::kAuto, Schedule::kStatic, Schedule::kDynamic,
                     Schedule::kGuided, Schedule::kFlopBalanced}) {
    EXPECT_EQ(schedule_from_string(to_string(s)), s) << to_string(s);
  }
}

TEST(Options, ScheduleParsingIsCaseInsensitiveWithAliases) {
  EXPECT_EQ(schedule_from_string("STATIC"), Schedule::kStatic);
  EXPECT_EQ(schedule_from_string("FlopBalanced"), Schedule::kFlopBalanced);
  EXPECT_EQ(schedule_from_string("flop-balanced"), Schedule::kFlopBalanced);
  EXPECT_THROW(schedule_from_string("roundrobin"), std::invalid_argument);
}

TEST(Options, CostModelStringRoundTripsForEveryValue) {
  for (CostModel c :
       {CostModel::kAuto, CostModel::kFlops, CostModel::kMaskNnz}) {
    EXPECT_EQ(cost_model_from_string(to_string(c)), c) << to_string(c);
  }
}

TEST(Options, CostModelParsingIsCaseInsensitiveWithAliases) {
  EXPECT_EQ(cost_model_from_string("FLOPS"), CostModel::kFlops);
  EXPECT_EQ(cost_model_from_string("mask-nnz"), CostModel::kMaskNnz);
  EXPECT_THROW(cost_model_from_string("rows"), std::invalid_argument);
}

TEST(Options, ValidateRejectsNegativeChunk) {
  MaskedOptions o;
  o.chunk = -1;
  EXPECT_THROW(validate_masked_options(o), std::invalid_argument);
  o.chunk = 0;
  EXPECT_NO_THROW(validate_masked_options(o));
  o.chunk = 128;
  EXPECT_NO_THROW(validate_masked_options(o));
}

TEST(Options, PhaseAndKindToString) {
  EXPECT_STREQ(to_string(PhaseMode::kOnePhase), "1P");
  EXPECT_STREQ(to_string(PhaseMode::kTwoPhase), "2P");
  EXPECT_STREQ(to_string(MaskKind::kMask), "mask");
  EXPECT_STREQ(to_string(MaskKind::kComplement), "complement");
}

TEST(Options, ValidateRejectsHeapDotWithExplicitFiniteNinspect) {
  MaskedOptions o;
  o.algo = MaskedAlgo::kHeapDot;
  o.heap_ninspect = 5;
  EXPECT_THROW(validate_masked_options(o), std::invalid_argument);
}

TEST(Options, ValidateAcceptsConsistentConfigurations) {
  MaskedOptions dot;
  dot.algo = MaskedAlgo::kHeapDot;
  EXPECT_NO_THROW(validate_masked_options(dot));  // default ninspect
  dot.heap_ninspect = kNInspectInfinity;
  EXPECT_NO_THROW(validate_masked_options(dot));  // explicit ∞

  MaskedOptions heap;
  heap.algo = MaskedAlgo::kHeap;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        kNInspectInfinity}) {
    heap.heap_ninspect = n;
    EXPECT_NO_THROW(validate_masked_options(heap));
  }
}

}  // namespace
}  // namespace msx
