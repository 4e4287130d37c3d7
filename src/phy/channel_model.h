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
//  * a **dynamic fading term** — an AR(1) process in dB,
//    x_n = rho * x_{n-1} + sigma * sqrt(1 - rho^2) * z_n, sampled once
//    per coherence interval of sim time. The innovations z_n come from a
//    counter-based RNG stream keyed by (link, seed, interval), and the
//    chain restarts from its stationary distribution at fixed block
//    boundaries, so x_n is a *pure function* of (link key, interval):
//    any evaluation order or cache state replays the
//    identical value bit for bit. Incremental state (FadingState) is
//    only ever a cache of that function.
//
// `fading.rho = 0` disables the dynamic term entirely; the model then
// degenerates to today's memoryless channel and every byte downstream
// is unchanged (ChannelEquivalence property-tests this).
#pragma once

#include <cstdint>

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
  /// Incremental AR(1) state for one link: the last interval the chain
  /// was advanced to and its value there. Purely a cache — advancing
  /// from here replays exactly the samples a from-scratch evaluation
  /// walks through — so state may be discarded (cache collision, cache
  /// growth) at any time without changing any returned value.
  struct FadingState {
    std::uint64_t interval = 0;
    double value_db = 0.0;
    bool valid = false;
  };

  /// Intervals per stationary-restart block: at every multiple of this
  /// the chain redraws from its stationary distribution instead of
  /// continuing, bounding a cold evaluation to kBlockIntervals steps.
  /// Within a block the autocorrelation at lag k is exactly rho^k
  /// (across a boundary it drops to 0 — a 1/kBlockIntervals-weight
  /// bias the moments test budgets for).
  static constexpr std::uint64_t kBlockIntervals = 256;

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

  /// Advances `state` (for the link identified by `link_key` — use
  /// pair_key for reciprocal fading) to `interval` and returns the
  /// fading value there in dB. `steps_out`, when non-null, is
  /// incremented by the number of AR(1) samples actually drawn: 0 means
  /// the state already held this interval (a pure cache hit). A stale,
  /// invalid, future, or cross-block state is rewound to the block's
  /// stationary restart, so the result never depends on what the state
  /// held before the call.
  double advance(FadingState& state, std::uint64_t link_key,
                 std::uint64_t interval,
                 std::uint64_t* steps_out = nullptr) const;

  /// The pure function: fading at (link_key, interval) from scratch.
  double fading_db(std::uint64_t link_key, std::uint64_t interval) const {
    FadingState scratch;
    return advance(scratch, link_key, interval);
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
  /// Innovation z_n of this link's fading stream.
  double innovation(std::uint64_t link_key, std::uint64_t n) const;

  ChannelParams params_;
  std::uint64_t seed_;
  /// sigma * sqrt(1 - rho^2), hoisted out of the per-sample recurrence.
  double innovation_scale_db_ = 0.0;
  /// Tiny frequency -> reference-loss memo (see reference_loss_db).
  struct RefLossMemo {
    double freq_hz = 0.0;
    double ref_loss_db = 0.0;
  };
  mutable RefLossMemo ref_loss_memo_[8];
  mutable unsigned ref_loss_memo_next_ = 0;
};

}  // namespace politewifi::phy
