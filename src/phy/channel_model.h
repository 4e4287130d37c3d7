// The pluggable channel model: static geometry + dynamic fading.
//
// Decomposes a link budget into two terms with very different lifetimes:
//
//  * a **static geometry term** — log-distance path loss plus a
//    deterministic per-link lognormal shadowing draw. A pure function of
//    (frequency, distance, link identity), so every cache layer above
//    (the medium's link cache, its SoA fan-out lanes, the FER memo)
//    may memoize it for as long as the geometry holds.
//
//  * a **dynamic fading term** — a stationary AR(1) process in dB
//    (lag-k autocorrelation rho^k, variance sigma^2), sampled once per
//    coherence interval of sim time and built as a dyadic
//    Ornstein–Uhlenbeck bridge. Multiples of 2^T are anchors drawn from
//    the stationary distribution, with T the smallest level at which
//    rho^(2^T) < 2^-53; every other interval n is the midpoint of its
//    level-ctz(n) dyadic segment and is drawn from the exact Gaussian
//    conditional on the segment's two ends. Interval n's standard
//    normal z_n comes from a counter-based RNG stream keyed by
//    (link, seed, n), so the fade is a *stateless pure function* of
//    (link key, interval): one evaluation descends from the two anchors
//    in at most T + 2 draws, and any evaluation order replays the
//    identical value bit for bit. The one approximation is that
//    adjacent anchors are independent; the correlation that drops is
//    below 2^-53.
//
// `fading.rho = 0` disables the dynamic term entirely; the model then
// degenerates to today's memoryless channel and every byte downstream
// is unchanged (ChannelEquivalence property-tests this).
#pragma once

#include <cstdint>
#include <vector>

namespace politewifi::phy {

/// AR(1) fading parameters. Disabled (memoryless channel) unless
/// rho > 0 and sigma_db > 0.
struct FadingParams {
  /// One-interval autocorrelation of the dB fading process, in [0, 1).
  /// 0 = no dynamic term at all (the legacy memoryless channel).
  double rho = 0.0;
  /// Stationary standard deviation of the fading term in dB.
  double sigma_db = 0.0;
  /// Coherence interval: sim-time nanoseconds between successive AR(1)
  /// samples. The fade is constant within an interval.
  std::int64_t coherence_ns = 1'000'000;  // 1 ms
};

struct ChannelParams {
  double path_loss_exponent = 3.0;
  /// Per-link lognormal shadowing spread (dB); drawn once per link.
  double shadowing_sigma_db = 4.0;
  FadingParams fading;
};

class ChannelModel {
 public:
  ChannelModel(ChannelParams params, std::uint64_t seed);

  const ChannelParams& params() const { return params_; }

  // --- Static geometry term ------------------------------------------------

  /// Friis reference loss at 1 m for `frequency_hz`, memoized per
  /// frequency (a fleet tunes a handful of channels). Evaluates exactly
  /// LogDistancePathLoss::reference_loss_db, so memoized and fresh
  /// values are bit-identical.
  double reference_loss_db(double frequency_hz) const;

  /// Deterministic per-link shadowing in dB: Box–Muller on two uniforms
  /// derived from the (order-independent) pair key and the seed.
  double shadowing_db(std::uint64_t id_a, std::uint64_t id_b) const;

  /// The full static gain (dB, <= 0 path loss plus shadowing):
  /// rx_dbm = tx_dbm + static_gain_db. Expression and evaluation order
  /// match LogDistancePathLoss::loss_db exactly (reference_m = 1.0,
  /// distance floored at 0.1 m), so this is bit-identical to the
  /// pre-refactor Medium::raw_link_gain_db.
  double static_gain_db(double frequency_hz, double distance_m,
                        std::uint64_t tx_id, std::uint64_t rx_id) const;

  // --- Dynamic fading term -------------------------------------------------

  bool fading_enabled() const {
    return params_.fading.rho > 0.0 && params_.fading.sigma_db > 0.0;
  }

  /// Coherence interval containing sim-time offset `elapsed_ns`.
  std::uint64_t interval_at(std::int64_t elapsed_ns) const {
    return static_cast<std::uint64_t>(elapsed_ns) /
           static_cast<std::uint64_t>(params_.fading.coherence_ns);
  }

  /// The fading value in dB at (`link_key`, `interval`) — use pair_key
  /// for reciprocal fading. A pure function: no state, no cache, the
  /// same double whatever was evaluated before. `draws_out`, when
  /// non-null, is incremented by the standard-normal draws consumed:
  /// 1 at an anchor, at most anchor_level() + 2 anywhere, 0 with fading
  /// disabled.
  double fading_db(std::uint64_t link_key, std::uint64_t interval,
                   std::uint64_t* draws_out = nullptr) const;

  /// T: anchors sit at multiples of 2^T intervals (0 with fading
  /// disabled).
  unsigned anchor_level() const {
    return static_cast<unsigned>(bridge_.size());
  }

  // --- Shared deterministic hashing ----------------------------------------

  static std::uint64_t splitmix(std::uint64_t x);
  /// Order-independent pair key (reciprocal links share one stream).
  static std::uint64_t pair_key(std::uint64_t a, std::uint64_t b);

 private:
  /// Standard-normal draw from counter `k`: Box–Muller on the uniforms
  /// splitmix(k), splitmix(k + 1) — the exact pattern shadowing_db uses,
  /// under a distinct key salt so the streams never alias.
  static double gaussian(std::uint64_t k);
  /// One bridge level l < T: a midpoint at half-span h = 2^l given its
  /// segment ends is weight * (x_left + x_right) + scale_db * z, with
  /// r = rho^h, weight = r / (1 + r^2) and
  /// scale_db = sigma * sqrt((1 - r^2) / (1 + r^2)).
  struct BridgeLevel {
    double weight = 0.0;
    double scale_db = 0.0;
  };

  ChannelParams params_;
  std::uint64_t seed_;
  /// Bridge levels 0 .. T-1, indexed by level; empty with fading off.
  std::vector<BridgeLevel> bridge_;
  /// Tiny frequency -> reference-loss memo (see reference_loss_db).
  struct RefLossMemo {
    double freq_hz = 0.0;
    double ref_loss_db = 0.0;
  };
  mutable RefLossMemo ref_loss_memo_[8];
  mutable unsigned ref_loss_memo_next_ = 0;
};

}  // namespace politewifi::phy
