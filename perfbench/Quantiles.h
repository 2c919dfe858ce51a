//===- perfbench/Quantiles.h - Median and percentile helpers ----*- C++ -*-===//
//
// Part of the SPD3 reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics for the benchmark's timing samples. Percentiles use the
/// nearest-rank definition, so every reported tail value is a latency that
/// was actually observed. Reservoir keeps a bounded uniform sample of a
/// long stream of them.
///
//===----------------------------------------------------------------------===//

#ifndef SPD3_PERFBENCH_QUANTILES_H
#define SPD3_PERFBENCH_QUANTILES_H

#include "support/Prng.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace spd3::perfbench {

/// Median of \p V: the middle sample, or the mean of the two middle samples
/// for an even count. 0 for an empty sample.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  double Hi = V[Mid];
  if (V.size() % 2 == 1)
    return Hi;
  double Lo = *std::max_element(V.begin(), V.begin() + Mid);
  return (Lo + Hi) / 2.0;
}

/// 1-based nearest rank of percentile \p P (in (0, 1]) over \p N samples:
/// the smallest rank with at least a share P of the samples at or below it.
inline size_t nearestRank(size_t N, double P) {
  auto Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(N)));
  return std::clamp<size_t>(Rank, 1, N);
}

/// Nearest-rank percentile \p P of \p V. 0 for an empty sample.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  size_t Idx = nearestRank(V.size(), P) - 1;
  std::nth_element(V.begin(), V.begin() + Idx, V.end());
  return V[Idx];
}

/// How many of \p N samples lie beyond the nearest-rank percentile \p P.
/// A tail percentile is only reported as steady with ten or more.
inline size_t samplesBeyond(size_t N, double P) {
  return N == 0 ? 0 : N - nearestRank(N, P);
}

/// A uniform random sample of at most Capacity items of a stream
/// (reservoir sampling, Vitter's algorithm R). While the stream is no
/// longer than Capacity every item is kept, in arrival order; after that
/// the n-th item replaces a random slot with probability Capacity / n.
/// Memory stays bounded however long the stream runs.
template <typename T> class Reservoir {
public:
  Reservoir(size_t Capacity, uint64_t Seed) : Capacity(Capacity), Rng(Seed) {}

  void add(const T &X) {
    ++Seen;
    if (Items.size() < Capacity) {
      Items.push_back(X);
      return;
    }
    uint64_t Slot = Rng.nextBelow(Seen);
    if (Slot < Capacity)
      Items[Slot] = X;
  }

  /// Items offered so far.
  uint64_t seen() const { return Seen; }
  const std::vector<T> &items() const { return Items; }

private:
  size_t Capacity;
  uint64_t Seen = 0;
  Prng Rng;
  std::vector<T> Items;
};

} // namespace spd3::perfbench

#endif // SPD3_PERFBENCH_QUANTILES_H
