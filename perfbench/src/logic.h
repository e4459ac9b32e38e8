// The benchmark's own decision logic, kept free of engine types so the
// self-test can pin it: the percentile rule, the fixed rate ladder and its
// search, span self time, and the seeded request generators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

// -- Percentiles -------------------------------------------------------------

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; with fewer, the tail is not measured.
inline constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile `pct` (0 < pct < 100) of `samples`, or nullopt
/// when fewer than kMinBeyond samples rank above it. `samples` need not be
/// sorted. +inf samples (failed requests) sort last and count as beyond any
/// finite limit.
std::optional<double> Percentile(std::vector<double> samples, int pct);

/// Smallest sample count for which Percentile(·, pct) is defined.
size_t MinSamplesFor(int pct);

/// The median, over consecutive windows of `samples` (in the order they
/// were taken), of each window's Percentile(·, pct). The windows are the
/// shortest that hold a percentile and `min_window` samples: as many equal
/// windows as fit with at least max(MinSamplesFor(pct), min_window) samples
/// each. A stall shorter than a window
/// moves only the windows it falls in, so the result moves only when
/// stalls hit most windows; a slowdown that lasts moves them all. nullopt
/// when the sample is too small for a single window.
std::optional<double> WindowedPercentile(std::span<const double> samples,
                                         int pct, size_t min_window = 0);

/// The median, over `windows` equal slices of [start_ns, end_ns), of each
/// slice's completions per second, given each operation's completion time.
/// Like WindowedPercentile, one stalled slice does not move the result.
double WindowedRate(std::span<const uint64_t> completions_ns, uint64_t start_ns,
                    uint64_t end_ns, size_t windows);

// -- Rate ladder -------------------------------------------------------------

/// The fixed offered-rate ladder (requests/s) shared by every served
/// workload: 100 · 1.05^k up to 250k/s. Constant across commits, so a
/// faster commit is probed at the same rates as its parent.
const std::vector<double>& RateLadder();

/// Index of the ladder rate closest to `rate`.
size_t LadderIndex(double rate);

/// Highest index in [0, n) for which `passes` holds, assuming passing is
/// monotone (every rate below a passing rate passes). `known_pass` is an
/// index already known to pass (or -1 for none); the search only probes
/// above it. It gallops upward by `first_step` (at least 1), doubling the
/// step after each pass, until a probe fails or the top index passes, then
/// bisects the last gap. It covers the whole range at a cost of about
/// 2 · log2(distance to the knee / first_step) probes plus log2(first_step).
/// Returns -1 when nothing passes. Each index is probed at most once.
long HighestPassing(size_t n, long known_pass, size_t first_step,
                    const std::function<bool(size_t)>& passes);

// -- Spans -------------------------------------------------------------------

/// One timed interval of a request's path: the layer it covers, the
/// request it belongs to, and the span that caused it (-1 for a root).
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t request = 0;
  long parent = -1;
};

/// Self time of `parent`: its duration minus the part of its interval
/// that the union of `children` covers (children are clipped to the
/// parent; overlapping children are counted once).
uint64_t SelfTimeNs(const Span& parent, std::span<const Span> children);

// -- Request generators ------------------------------------------------------

/// One read request: the neighborhood it targets and whether it is a COUNT
/// (else a SELECT).
struct Request {
  uint32_t polygon = 0;
  bool count = false;
};

/// Independent stream seed for `salt` under the run's `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// The seeded hot set: floor(fraction · n) polygons (at least one), one
/// drawn uniformly from each equal-size stratum of the polygons ordered by
/// `areas`. Every seed's hot set therefore has the same size mix — query
/// cost follows polygon size, and a plain uniform draw of 19 of 195 moves
/// the mean request cost by ±15 % between seeds. Returned ascending.
std::vector<uint32_t> HotSet(std::span<const double> areas, double fraction,
                             uint64_t seed);

/// `n` requests: with probability 9/10 a uniform hot polygon, else a
/// uniform polygon of all `num_polygons`; 1 in 8 (drawn) is a COUNT.
std::vector<Request> SkewedStream(size_t n, std::span<const uint32_t> hot,
                                  size_t num_polygons, uint64_t seed);

/// `n` requests under Zipf(s=1) popularity, as in bench/fig24: polygon r
/// is drawn with weight 1/(r+1). The popularity order is fixed, so seeds
/// vary the request sequence, not which shards are hot — a seeded order
/// moved read_budget's median latency by 2x between seeds. 1 in 8 (drawn)
/// is a COUNT.
std::vector<Request> ZipfStream(size_t n, size_t num_polygons, uint64_t seed);

}  // namespace perfbench
