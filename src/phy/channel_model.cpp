#include "phy/channel_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "phy/propagation.h"

namespace politewifi::phy {

namespace {

/// Salt separating the fading innovation stream from the shadowing
/// stream: both hash the same pair key and seed, and the shadowing draw
/// consumes counters k and k + 1, so the fading stream must live in an
/// unrelated region of counter space.
constexpr std::uint64_t kFadingSalt = 0x8f1d2ab04c96e35dULL;

/// Counter stride between successive intervals' draws. Odd and avalanche-
/// friendly (the splitmix golden-ratio increment), so n -> base + n *
/// stride never collides with the paired counter k + 1 of another n.
constexpr std::uint64_t kCounterStride = 0x9e3779b97f4a7c15ULL;

}  // namespace

std::uint64_t ChannelModel::splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t ChannelModel::pair_key(std::uint64_t a, std::uint64_t b) {
  if (a > b) std::swap(a, b);
  return splitmix(a * 0x100000001b3ULL + b);
}

ChannelModel::ChannelModel(ChannelParams params, std::uint64_t seed)
    : params_(params), seed_(seed) {
  PW_CHECK(params_.fading.rho >= 0.0 && params_.fading.rho < 1.0,
           "fading rho must be in [0, 1)");
  PW_CHECK(params_.fading.sigma_db >= 0.0,
           "fading sigma must be non-negative");
  PW_CHECK(!fading_enabled() || params_.fading.coherence_ns > 0,
           "fading needs a positive coherence interval");
  if (!fading_enabled()) return;
  // T is the first level whose span decorrelates the process below one
  // part in 2^53: anchors that far apart are drawn independently, and
  // the correlation that drops is smaller than a double can carry.
  for (double r = params_.fading.rho; r >= 0x1p-53; r *= r) {
    const double r2 = r * r;
    const double spread = std::sqrt((1.0 - r) * (1.0 + r) / (1.0 + r2));
    bridge_.push_back(
        BridgeLevel{r / (1.0 + r2), params_.fading.sigma_db * spread});
  }
  PW_CHECK(bridge_.size() < 64, "fading rho %.17g needs a bridge deeper "
           "than 63 levels", params_.fading.rho);
}

double ChannelModel::reference_loss_db(double frequency_hz) const {
  for (const RefLossMemo& m : ref_loss_memo_) {
    if (m.freq_hz == frequency_hz && m.freq_hz != 0.0) return m.ref_loss_db;
  }
  // Computed with the model itself, so the memoized value is the exact
  // double a per-call LogDistancePathLoss construction would produce.
  const LogDistancePathLoss model(
      {.exponent = params_.path_loss_exponent,
       .reference_m = 1.0,
       .shadowing_sigma_db = 0.0},
      frequency_hz);
  const double ref = model.reference_loss_db();
  ref_loss_memo_[ref_loss_memo_next_++ & 7] = RefLossMemo{frequency_hz, ref};
  return ref;
}

double ChannelModel::shadowing_db(std::uint64_t id_a,
                                  std::uint64_t id_b) const {
  if (params_.shadowing_sigma_db <= 0.0) return 0.0;
  // Box-Muller on two deterministic uniforms from the pair key.
  const std::uint64_t k = pair_key(id_a, id_b) ^ seed_;
  const double u1 =
      (double(splitmix(k) >> 11) + 0.5) / 9007199254740992.0;  // (0,1)
  const double u2 = (double(splitmix(k + 1) >> 11) + 0.5) / 9007199254740992.0;
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return z * params_.shadowing_sigma_db;
}

double ChannelModel::static_gain_db(double frequency_hz, double distance_m,
                                    std::uint64_t tx_id,
                                    std::uint64_t rx_id) const {
  const double ref = reference_loss_db(frequency_hz);
  const double d = std::max(distance_m, 0.1);
  const double loss =
      ref + 10.0 * params_.path_loss_exponent * std::log10(d / 1.0);
  return -std::max(loss, 0.0) + shadowing_db(tx_id, rx_id);
}

double ChannelModel::gaussian(std::uint64_t k) {
  const double u1 =
      (double(splitmix(k) >> 11) + 0.5) / 9007199254740992.0;  // (0,1)
  const double u2 = (double(splitmix(k + 1) >> 11) + 0.5) / 9007199254740992.0;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double ChannelModel::fading_db(std::uint64_t link_key, std::uint64_t interval,
                               std::uint64_t* draws_out) const {
  if (!fading_enabled()) return 0.0;
  // z_n: interval n's own standard normal. Each interval is drawn once
  // by construction (as an anchor or as its segment's midpoint), so one
  // counter per interval keeps every draw independent.
  const std::uint64_t base = splitmix(link_key ^ seed_ ^ kFadingSalt);
  const auto z = [base](std::uint64_t n) {
    return gaussian(base + n * kCounterStride);
  };
  const double sigma = params_.fading.sigma_db;
  std::size_t level = bridge_.size();
  std::uint64_t lo = (interval >> level) << level;
  double x_lo = sigma * z(lo);
  if (lo == interval) {
    if (draws_out != nullptr) ++*draws_out;
    return x_lo;
  }
  double x_hi = sigma * z(lo + (std::uint64_t{1} << level));
  std::uint64_t draws = 2;
  // Halve the segment [lo, lo + 2^level] around `interval` until its
  // midpoint is the interval itself: the midpoint's law given the two
  // ends is exact for an AR(1) (Markov) process.
  for (;;) {
    --level;
    const std::uint64_t mid = lo + (std::uint64_t{1} << level);
    const BridgeLevel& b = bridge_[level];
    const double x_mid = b.weight * (x_lo + x_hi) + b.scale_db * z(mid);
    ++draws;
    if (mid == interval) {
      if (draws_out != nullptr) *draws_out += draws;
      return x_mid;
    }
    if (interval < mid) {
      x_hi = x_mid;
    } else {
      lo = mid;
      x_lo = x_mid;
    }
  }
}

}  // namespace politewifi::phy
