// Deterministic, splittable random number generation.
//
// All stochastic components (graph generation, sampling, weight init) draw
// from Rng streams derived from explicit seeds, so every experiment in the
// repository is bit-reproducible across runs and thread counts.
#pragma once

#include <cstdint>
#include <vector>

namespace apt {

/// splitmix64: tiny, fast, well-distributed 64-bit generator. Used both as
/// a PRNG and as the mixing function to derive independent substreams.
class Rng {
 public:
  /// splitmix64's per-draw state increment (2^64 / golden ratio).
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed) {}

  /// splitmix64's output function of one counter value.
  static std::uint64_t Mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Next raw 64-bit value.
  std::uint64_t Next() { return Mix(state_ += kGamma); }

  /// The counter: the k-th next draw (k = 1, 2, ...) is
  /// Mix(state() + k * kGamma), wrapping, so vector code can make several
  /// draws at once and then Skipped() past them.
  std::uint64_t state() const { return state_; }

  /// This generator as it will be after `draws` calls of Next(). splitmix64's
  /// state only ever adds the golden-ratio constant, so the jump is O(1)
  /// (wrapping like the state does); chunked parallel loops use it to start
  /// each chunk at exactly the draws a serial loop would reach there.
  Rng Skipped(std::uint64_t draws) const {
    return Rng(state_ + draws * kGamma);
  }

  /// Uniform in [0, n). n must be > 0.
  std::uint64_t NextBelow(std::uint64_t n) { return Next() % n; }

  /// Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform float in [lo, hi).
  float NextUniform(float lo, float hi) {
    return lo + static_cast<float>(NextDouble()) * (hi - lo);
  }

  /// Standard normal via Box–Muller (one value per call; simple > fast here).
  float NextGaussian();

  /// A deterministic substream: independent generator derived from this
  /// seed and the given stream id (e.g. one per thread / device / epoch).
  Rng Fork(std::uint64_t stream) const {
    Rng mixer(state_ ^ (0xd1b54a32d192ed03ULL * (stream + 1)));
    return Rng(mixer.Next());
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = NextBelow(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_;
};

}  // namespace apt
