#include "logic.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile `pct` among `n` samples, in integer
// arithmetic so that e.g. p99 of 1000 samples is rank 990, not 991.
size_t NearestRank(size_t n, int pct) {
  const size_t p = static_cast<size_t>(pct);
  return std::max<size_t>(1, (p * n + 99) / 100);
}

// Uniform integer in [0, n) from a 64-bit draw (the bias is < n / 2^64).
size_t Uniform(std::mt19937_64& rng, size_t n) {
  return static_cast<size_t>(rng() % n);
}

// Uniform double in [0, 1) from the top 53 bits of a draw.
double Unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, int pct) {
  if (pct <= 0 || pct >= 100) throw std::invalid_argument("percentile");
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const size_t rank = NearestRank(n, pct);
  if (n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t MinSamplesFor(int pct) {
  size_t n = 1;
  while (n - NearestRank(n, pct) < kMinBeyond) ++n;
  return n;
}

std::optional<double> WindowedPercentile(std::span<const double> samples,
                                         int pct, size_t min_window) {
  const size_t windows =
      samples.size() / std::max(MinSamplesFor(pct), min_window);
  if (windows == 0) return std::nullopt;
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = w * samples.size() / windows;
    const size_t hi = (w + 1) * samples.size() / windows;
    tails.push_back(*Percentile(
        std::vector<double>(samples.begin() + lo, samples.begin() + hi), pct));
  }
  std::sort(tails.begin(), tails.end());
  return tails[(tails.size() - 1) / 2];
}

double WindowedRate(std::span<const uint64_t> completions_ns, uint64_t start_ns,
                    uint64_t end_ns, size_t windows) {
  if (windows == 0 || end_ns <= start_ns) return 0.0;
  const double slice_ns =
      static_cast<double>(end_ns - start_ns) / static_cast<double>(windows);
  std::vector<double> counts(windows, 0.0);
  for (const uint64_t t : completions_ns) {
    if (t < start_ns || t >= end_ns) continue;
    const size_t w = std::min(
        windows - 1,
        static_cast<size_t>(static_cast<double>(t - start_ns) / slice_ns));
    counts[w] += 1.0;
  }
  std::sort(counts.begin(), counts.end());
  return counts[(windows - 1) / 2] * 1e9 / slice_ns;
}

const std::vector<double>& RateLadder() {
  static const std::vector<double> ladder = [] {
    std::vector<double> rates;
    for (double r = 100.0; r <= 250'000.0; r *= 1.05) rates.push_back(r);
    return rates;
  }();
  return ladder;
}

size_t LadderIndex(double rate) {
  const std::vector<double>& ladder = RateLadder();
  size_t best = 0;
  for (size_t i = 1; i < ladder.size(); ++i) {
    if (std::fabs(ladder[i] - rate) < std::fabs(ladder[best] - rate)) best = i;
  }
  return best;
}

long HighestPassing(size_t n, long known_pass, size_t first_step,
                    const std::function<bool(size_t)>& passes) {
  const long top = static_cast<long>(n) - 1;
  long lo = known_pass;  // highest index known to pass
  long hi = top + 1;     // lowest index known to fail
  for (long step = std::max<long>(1, static_cast<long>(first_step)); lo < top;
       step *= 2) {
    const long i = std::min(top, lo + step);
    if (!passes(static_cast<size_t>(i))) {
      hi = i;
      break;
    }
    lo = i;
  }
  while (hi - lo > 1) {
    const long mid = lo + (hi - lo) / 2;
    if (passes(static_cast<size_t>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint64_t SelfTimeNs(const Span& parent, std::span<const Span> children) {
  std::vector<std::pair<uint64_t, uint64_t>> clipped;
  for (const Span& c : children) {
    const uint64_t s = std::max(c.start_ns, parent.start_ns);
    const uint64_t e = std::min(c.end_ns, parent.end_ns);
    if (s < e) clipped.emplace_back(s, e);
  }
  std::sort(clipped.begin(), clipped.end());
  uint64_t covered = 0;
  uint64_t run_start = 0;
  uint64_t run_end = 0;
  bool open = false;
  for (const auto& [s, e] : clipped) {
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_start;
  const uint64_t duration =
      parent.end_ns > parent.start_ns ? parent.end_ns - parent.start_ns : 0;
  return duration - covered;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  // SplitMix64 finalizer over (seed, salt).
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<uint32_t> HotSet(std::span<const double> areas, double fraction,
                             uint64_t seed) {
  const size_t n = areas.size();
  if (n == 0) return {};
  const size_t k = std::clamp<size_t>(
      static_cast<size_t>(fraction * static_cast<double>(n)), 1, n);
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return areas[a] < areas[b];
  });
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> hot;
  for (size_t j = 0; j < k; ++j) {
    const size_t lo = j * n / k;
    const size_t hi = (j + 1) * n / k;
    hot.push_back(order[lo + Uniform(rng, hi - lo)]);
  }
  std::sort(hot.begin(), hot.end());
  return hot;
}

std::vector<Request> SkewedStream(size_t n, std::span<const uint32_t> hot,
                                  size_t num_polygons, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Request> out(n);
  for (Request& r : out) {
    const bool to_hot = Uniform(rng, 10) < 9;
    r.polygon = to_hot ? hot[Uniform(rng, hot.size())]
                       : static_cast<uint32_t>(Uniform(rng, num_polygons));
    r.count = Uniform(rng, 8) == 0;
  }
  return out;
}

std::vector<Request> ZipfStream(size_t n, size_t num_polygons, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> cumulative(num_polygons);
  double total = 0.0;
  for (size_t r = 0; r < num_polygons; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cumulative[r] = total;
  }
  std::vector<Request> out(n);
  for (Request& req : out) {
    const double u = Unit(rng) * total;
    const size_t rank = std::min<size_t>(
        num_polygons - 1,
        static_cast<size_t>(std::upper_bound(cumulative.begin(),
                                             cumulative.end(), u) -
                            cumulative.begin()));
    req.polygon = static_cast<uint32_t>(rank);
    req.count = Uniform(rng, 8) == 0;
  }
  return out;
}

}  // namespace perfbench
