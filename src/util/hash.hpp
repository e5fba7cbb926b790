// FNV-1a hashing shared by the provenance and storage layers.
//
// Two variants with distinct, stable contracts:
//
//   Fnv       byte-at-a-time FNV-1a with length-prefixed field helpers.
//             Used by engine/run_manifest for the dataset fingerprint —
//             its values are persisted in manifests, so the definition
//             must never change.
//
//   fnv1a_words  four-lane word-folded FNV-1a over a raw byte range:
//             each lane xor-multiplies every fourth little-endian
//             64-bit word, so the four multiply chains pipeline
//             instead of serializing on the ~5-cycle multiply latency
//             (~4x the single-chain word fold, ~30x the byte loop).
//             The lanes and the length fold into one final FNV chain.
//             This matters when fingerprinting multi-hundred-megabyte
//             mpac shards on every load. Not interchangeable with Fnv
//             over the same bytes; io/columnar.hpp defines shard
//             fingerprints in terms of this function.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace mpa {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Incremental byte-wise FNV-1a with field framing.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= kFnvPrime;
    }
  }
  /// Length-prefixed so {"ab","c"} and {"a","bc"} hash differently.
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

/// Four-lane word-folded FNV-1a over `[data, data + n)`. Lane k folds
/// words k, k+4, k+8, ... of the input; the remaining words and tail
/// bytes go to lane 0, and the lanes plus the byte length are folded
/// into a single FNV chain at the end (so inputs of different lengths
/// that pad to the same words still hash differently).
inline std::uint64_t fnv1a_words(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  // Distinct lane seeds: one multiply step of FNV over the lane index.
  std::uint64_t h0 = kFnvOffset;
  std::uint64_t h1 = (kFnvOffset ^ 1) * kFnvPrime;
  std::uint64_t h2 = (kFnvOffset ^ 2) * kFnvPrime;
  std::uint64_t h3 = (kFnvOffset ^ 3) * kFnvPrime;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint64_t w0, w1, w2, w3;
    std::memcpy(&w0, p + i, 8);
    std::memcpy(&w1, p + i + 8, 8);
    std::memcpy(&w2, p + i + 16, 8);
    std::memcpy(&w3, p + i + 24, 8);
    h0 = (h0 ^ w0) * kFnvPrime;
    h1 = (h1 ^ w1) * kFnvPrime;
    h2 = (h2 ^ w2) * kFnvPrime;
    h3 = (h3 ^ w3) * kFnvPrime;
  }
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof w);
    h0 = (h0 ^ w) * kFnvPrime;
  }
  for (; i < n; ++i) h0 = (h0 ^ p[i]) * kFnvPrime;
  std::uint64_t h = (((h0 ^ h1) * kFnvPrime ^ h2) * kFnvPrime ^ h3) * kFnvPrime;
  return (h ^ static_cast<std::uint64_t>(n)) * kFnvPrime;
}

}  // namespace mpa
