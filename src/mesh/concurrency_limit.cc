#include "mesh/concurrency_limit.h"

#include <algorithm>

namespace meshnet::mesh {

namespace {

constexpr double kAdditiveIncrease = 1.0;
constexpr double kMultiplicativeDecrease = 0.7;
/// Baseline = min of the last N window means (windowed min filter).
constexpr std::size_t kBaselineWindows = 8;
/// EWMA weight of the latest completion in `latency_estimate()`.
constexpr double kEstimateAlpha = 0.3;

}  // namespace

ConcurrencyLimit::ConcurrencyLimit(ConcurrencyLimitConfig config)
    : config_(config) {
  config_.min_limit = std::max<std::uint32_t>(1, config_.min_limit);
  config_.max_limit = std::max(config_.max_limit, config_.min_limit);
  limit_ = std::clamp(config_.initial_limit, config_.min_limit,
                      config_.max_limit);
  limit_f_ = static_cast<double>(limit_);
}

void ConcurrencyLimit::on_start() noexcept {
  ++in_flight_;
  if (in_flight_ >= limit_) limit_hit_ = true;
}

void ConcurrencyLimit::on_complete(sim::Duration latency, sim::Time now) {
  if (in_flight_ > 0) --in_flight_;

  estimate_ = estimate_ == 0
                  ? latency
                  : static_cast<sim::Duration>(
                        kEstimateAlpha * static_cast<double>(latency) +
                        (1.0 - kEstimateAlpha) *
                            static_cast<double>(estimate_));

  if (window_samples_ == 0 && window_sum_ == 0 && window_start_ == 0) {
    window_start_ = now;  // first sample ever opens the first window
  }
  window_sum_ += latency;
  ++window_samples_;
  if (now - window_start_ >= config_.window) close_window(now);
}

void ConcurrencyLimit::close_window(sim::Time now) {
  const std::uint32_t samples = window_samples_;
  const sim::Duration mean =
      samples == 0 ? 0 : window_sum_ / static_cast<sim::Duration>(samples);
  const bool pressed = limit_hit_;
  window_start_ = now;
  window_sum_ = 0;
  window_samples_ = 0;
  limit_hit_ = in_flight_ >= limit_;

  if (samples < config_.min_window_samples) return;

  // Baseline: min of recent window means, i.e. the least-loaded latency
  // the service has recently shown. The current mean participates, so the
  // first window is its own baseline (gradient 1.0 -> no decrease).
  sim::Duration baseline = mean;
  for (const sim::Duration m : recent_means_) baseline = std::min(baseline, m);
  if (recent_means_.size() < kBaselineWindows) {
    recent_means_.push_back(mean);
  } else {
    recent_means_[recent_next_] = mean;
    recent_next_ = (recent_next_ + 1) % recent_means_.size();
  }

  const double gradient = baseline == 0
                              ? 1.0
                              : static_cast<double>(mean) /
                                    static_cast<double>(baseline);
  const std::uint32_t before = limit_;
  if (gradient > config_.latency_tolerance) {
    limit_f_ = std::max(static_cast<double>(config_.min_limit),
                        limit_f_ * kMultiplicativeDecrease);
  } else if (pressed) {
    limit_f_ = std::min(static_cast<double>(config_.max_limit),
                        limit_f_ + kAdditiveIncrease);
  }
  limit_ = std::clamp(static_cast<std::uint32_t>(limit_f_),
                      config_.min_limit, config_.max_limit);
  if (limit_ > before) ++increases_;
  if (limit_ < before) ++decreases_;
  if (limit_ != before && on_limit_change_) on_limit_change_(limit_);
}

}  // namespace meshnet::mesh
