#include "adaptive/feedback.hpp"

#include <algorithm>

namespace msx::adaptive {

FeedbackStore::FeedbackStore(obs::Registry& metrics)
    : plans_total_(metrics.counter("msx_adaptive_plans_total")),
      mode_blocks_total_{
          metrics.counter("msx_adaptive_mode_blocks_total", "mode=\"sparse\""),
          metrics.counter("msx_adaptive_mode_blocks_total", "mode=\"bitmap\""),
          metrics.counter("msx_adaptive_mode_blocks_total", "mode=\"dense\"")},
      records_total_(metrics.counter("msx_adaptive_feedback_records_total")),
      blocks_total_(metrics.counter("msx_adaptive_feedback_blocks_total")),
      feedback_hits_total_(metrics.counter("msx_adaptive_feedback_hits_total")),
      remodes_total_(metrics.counter("msx_adaptive_remodes_total")) {}

FeedbackStore& FeedbackStore::global() {
  static FeedbackStore* store = new FeedbackStore(obs::Registry::global());
  return *store;
}

void FeedbackStore::record(std::uint64_t digest, const RowPartition& part,
                           const BlockTimings& timings) {
  const auto nb = static_cast<std::size_t>(part.blocks());
  if (nb == 0 || timings.nanos.size() != nb || timings.mode.size() != nb ||
      part.block_mode_cost.size() != nb * kBlockModeCount) {
    return;
  }
  MutexLock lock(&mu_);
  if (store_.size() >= kMaxEntries && store_.find(digest) == store_.end()) {
    store_.clear();
  }
  Entry& e = store_[digest];
  if (e.blocks.size() != nb) e.blocks.assign(nb, BlockObs{});
  std::uint64_t absorbed = 0;
  for (std::size_t blk = 0; blk < nb; ++blk) {
    const auto nanos = static_cast<double>(timings.nanos[blk]);
    if (nanos <= 0.0) continue;
    const int m = std::min<int>(timings.mode[blk], kBlockModeCount - 1);
    double& obs = e.blocks[blk].nanos[m];
    obs = obs > 0.0 ? (1.0 - kObsAlpha) * obs + kObsAlpha * nanos : nanos;
    const double predicted =
        part.block_mode_cost[blk * kBlockModeCount + static_cast<std::size_t>(m)];
    if (predicted > 0.0) {
      const double ratio = nanos / predicted;
      double& coeff = e.coeff[m];
      coeff = coeff > 0.0 ? (1.0 - kCoeffAlpha) * coeff + kCoeffAlpha * ratio
                          : ratio;
    }
    ++absorbed;
  }
  records_total_->inc();
  blocks_total_->inc(absorbed);
}

int FeedbackStore::remode(std::uint64_t digest, RowPartition& part) {
  const auto nb = static_cast<std::size_t>(part.blocks());
  if (nb == 0 || part.block_mode.size() != nb ||
      part.block_mode_cost.size() != nb * kBlockModeCount) {
    return 0;
  }
  MutexLock lock(&mu_);
  const auto it = store_.find(digest);
  if (it == store_.end()) return 0;
  const Entry& e = it->second;
  if (e.blocks.size() != nb) return 0;  // partition reshaped; stale data
  feedback_hits_total_->inc();

  // Unobserved modes are priced coeff × prediction; with no coefficient for
  // a mode yet, fall back to the mean of the known coefficients so every
  // candidate is in (approximate) nanoseconds.
  double coeff_sum = 0.0;
  int coeff_n = 0;
  for (const double c : e.coeff) {
    if (c > 0.0) {
      coeff_sum += c;
      ++coeff_n;
    }
  }
  if (coeff_n == 0) return 0;  // recorded nothing usable yet
  const double fallback = coeff_sum / coeff_n;

  int changed = 0;
  for (std::size_t blk = 0; blk < nb; ++blk) {
    double pred[kBlockModeCount];
    for (int m = 0; m < kBlockModeCount; ++m) {
      const double obs = e.blocks[blk].nanos[m];
      if (obs > 0.0) {
        pred[m] = obs;
      } else {
        const double c = e.coeff[m] > 0.0 ? e.coeff[m] : fallback;
        pred[m] =
            c * part.block_mode_cost[blk * kBlockModeCount +
                                     static_cast<std::size_t>(m)];
      }
    }
    const int cur = std::min<int>(part.block_mode[blk], kBlockModeCount - 1);
    int best = cur;
    for (int m = 0; m < kBlockModeCount; ++m) {
      if (pred[m] < pred[best]) best = m;
    }
    if (best != cur && pred[best] < pred[cur] * (1.0 - kHysteresis)) {
      part.block_mode[blk] = static_cast<std::uint8_t>(best);
      ++changed;
    }
  }
  if (changed > 0) remodes_total_->inc(static_cast<std::uint64_t>(changed));
  return changed;
}

void FeedbackStore::note_planned(const RowPartition& part) {
  std::uint64_t per_mode[kBlockModeCount] = {0, 0, 0};
  for (const std::uint8_t m : part.block_mode) {
    per_mode[std::min<int>(m, kBlockModeCount - 1)] += 1;
  }
  plans_total_->inc();
  for (int m = 0; m < kBlockModeCount; ++m) {
    if (per_mode[m] > 0) mode_blocks_total_[m]->inc(per_mode[m]);
  }
}

FeedbackStats FeedbackStore::stats() const {
  FeedbackStats out;
  out.plans = plans_total_->value();
  for (int m = 0; m < kBlockModeCount; ++m) {
    out.mode_blocks[m] = mode_blocks_total_[m]->value();
  }
  out.records = records_total_->value();
  out.blocks_recorded = blocks_total_->value();
  out.feedback_hits = feedback_hits_total_->value();
  out.remodes = remodes_total_->value();
  MutexLock lock(&mu_);
  out.entries = store_.size();
  return out;
}

void FeedbackStore::clear() {
  MutexLock lock(&mu_);
  store_.clear();
}

}  // namespace msx::adaptive
