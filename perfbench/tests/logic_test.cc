// Self-test of the benchmark's own logic: the percentile rule, the seeded
// generators, span self time, and the capacity search on a synthetic
// latency curve. Exits non-zero on the first failed check.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <set>
#include <vector>

#include "logic.h"

namespace {

int failures = 0;

#define CHECK(cond)                                              \
  do {                                                           \
    if (!(cond)) {                                               \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                \
    }                                                            \
  } while (0)

using namespace perfbench;

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void PercentileNeedsTenBeyond() {
  CHECK(MinSamplesFor(99) == 1000);
  CHECK(MinSamplesFor(50) == 20);
  const auto p99 = Percentile(OneTo(1000), 99);
  CHECK(p99.has_value() && *p99 == 990.0);  // ranks 991..1000 lie beyond
  CHECK(!Percentile(OneTo(999), 99).has_value());
  CHECK(!Percentile({}, 50).has_value());
  const auto p50 = Percentile(OneTo(101), 50);
  CHECK(p50.has_value() && *p50 == 51.0);
  // Failed requests (+inf) count as beyond any finite limit.
  std::vector<double> with_failures = OneTo(1000);
  for (int i = 0; i < 11; ++i) {
    with_failures[static_cast<size_t>(i)] =
        std::numeric_limits<double>::infinity();
  }
  CHECK(std::isinf(*Percentile(with_failures, 99)));
}

void WindowedPercentileIgnoresOneStalledWindow() {
  CHECK(!WindowedPercentile(OneTo(999), 99).has_value());
  // 5 windows of 1000: a flat 1.0 tail, except a stall in window 1.
  std::vector<double> samples(5000, 1.0);
  for (size_t i = 1000; i < 1100; ++i) samples[i] = 50.0;
  CHECK(*WindowedPercentile(samples, 99) == 1.0);
  CHECK(*Percentile(samples, 99) == 50.0);
  // A slowdown in every window moves the result.
  for (size_t w = 0; w < 5; ++w) {
    for (size_t i = 0; i < 20; ++i) samples[w * 1000 + i] = 9.0;
  }
  CHECK(*WindowedPercentile(samples, 99) == 9.0);
  // Windows are as short as a p99 allows: a stall that fills 2 % of a
  // 20000-sample run, in one place, moves 1 of 20 windows only.
  std::vector<double> run(20000, 2.0);
  for (size_t i = 5000; i < 5400; ++i) run[i] = 40.0;
  CHECK(*WindowedPercentile(run, 99) == 2.0);
  CHECK(*Percentile(run, 99) == 40.0);
}

void HotSetIsSeededAndStratified() {
  std::vector<double> areas;
  for (int i = 0; i < 195; ++i) areas.push_back(std::fmod(i * 37.0, 195.0));
  const auto a = HotSet(areas, 0.10, 7);
  CHECK(a == HotSet(areas, 0.10, 7));
  CHECK(a != HotSet(areas, 0.10, 8));
  CHECK(a.size() == 19);
  CHECK(std::set<uint32_t>(a.begin(), a.end()).size() == a.size());
  // One polygon per area stratum: the j-th smallest pick lies in stratum j.
  std::vector<double> picked;
  for (uint32_t p : a) picked.push_back(areas[p]);
  std::sort(picked.begin(), picked.end());
  for (size_t j = 0; j < picked.size(); ++j) {
    CHECK(picked[j] >= static_cast<double>(j * 195 / 19) &&
          picked[j] < static_cast<double>((j + 1) * 195 / 19));
  }

  const auto s1 = SkewedStream(100000, a, 195, 3);
  const auto s2 = SkewedStream(100000, a, 195, 3);
  bool same = true;
  size_t hot = 0, counts = 0;
  const std::set<uint32_t> hot_set(a.begin(), a.end());
  for (size_t i = 0; i < s1.size(); ++i) {
    same &= s1[i].polygon == s2[i].polygon && s1[i].count == s2[i].count;
    hot += hot_set.count(s1[i].polygon);
    counts += s1[i].count;
  }
  CHECK(same);
  // 90 % to the hot set plus the uniform tenth that happens to hit it.
  const double hot_share = static_cast<double>(hot) / 1e5;
  CHECK(std::fabs(hot_share - (0.9 + 0.1 * 19.0 / 195.0)) < 0.01);
  CHECK(std::fabs(static_cast<double>(counts) / 1e5 - 0.125) < 0.01);
}

void ZipfIsSeeded() {
  const auto z1 = ZipfStream(200000, 195, 11);
  const auto z2 = ZipfStream(200000, 195, 11);
  const auto z3 = ZipfStream(200000, 195, 12);
  std::vector<size_t> freq(195, 0);
  bool same = true, differs = false;
  for (size_t i = 0; i < z1.size(); ++i) {
    same &= z1[i].polygon == z2[i].polygon && z1[i].count == z2[i].count;
    differs |= z1[i].polygon != z3[i].polygon;
    ++freq[z1[i].polygon];
  }
  CHECK(same);
  CHECK(differs);
  double harmonic = 0.0;
  for (int r = 1; r <= 195; ++r) harmonic += 1.0 / r;
  // Popularity follows the polygon order: polygon 0 is the hottest.
  CHECK(std::is_sorted(freq.begin(), freq.begin() + 3, std::greater<>()));
  const double top = static_cast<double>(freq[0]) / 200000.0;
  CHECK(std::fabs(top - 1.0 / harmonic) < 0.01);
  const double second = static_cast<double>(freq[1]) / 200000.0;
  CHECK(std::fabs(second - 0.5 / harmonic) < 0.01);
}

void WindowedRateIgnoresOneStalledSlice() {
  // 1000 completions per second for 5 s, with nothing done in second 2.
  std::vector<uint64_t> done;
  for (uint64_t i = 0; i < 5000; ++i) {
    const uint64_t t = i * 1'000'000;
    if (t < 2'000'000'000 || t >= 3'000'000'000) done.push_back(t);
  }
  CHECK(std::fabs(WindowedRate(done, 0, 5'000'000'000, 5) - 1000.0) < 1e-6);
  // A slowdown that lasts halves every slice.
  std::vector<uint64_t> slow;
  for (uint64_t i = 0; i < 2500; ++i) slow.push_back(i * 2'000'000);
  CHECK(std::fabs(WindowedRate(slow, 0, 5'000'000'000, 5) - 500.0) < 1e-6);
  CHECK(WindowedRate(done, 10, 10, 5) == 0.0);
}

void SelfTimeSubtractsCoveredChildTime() {
  const Span parent{"p", 100, 200, 1, -1};
  CHECK(SelfTimeNs(parent, {}) == 100);
  const std::vector<Span> children = {
      {"a", 110, 120, 1, 0},  // inside
      {"b", 115, 130, 1, 0},  // overlaps a: 110..130 counted once
      {"c", 190, 220, 1, 0},  // clipped to 190..200
      {"d", 300, 400, 1, 0},  // outside the parent
  };
  CHECK(SelfTimeNs(parent, children) == 70);
  const std::vector<Span> covering = {{"all", 50, 250, 1, 0}};
  CHECK(SelfTimeNs(parent, covering) == 0);
}

void LadderSearchFindsTheKnee() {
  const std::vector<double>& ladder = RateLadder();
  CHECK(ladder.front() == 100.0);
  CHECK(ladder.back() <= 250000.0 && ladder.back() * 1.05 > 250000.0);
  CHECK(LadderIndex(100.0) == 0);
  CHECK(std::fabs(ladder[LadderIndex(2000.0)] - 2000.0) < 2000.0 * 0.025);
  // p99 of an M/M/1-like server: base / (1 - rate / capacity).
  for (const double capacity : {800.0, 9000.0, 47000.0}) {
    const double base_ms = 2.0;
    auto p99_ms = [&](double rate) {
      return rate >= capacity ? std::numeric_limits<double>::infinity()
                              : base_ms / (1.0 - rate / capacity);
    };
    long expected = -1;
    for (size_t i = 0; i < ladder.size(); ++i) {
      if (p99_ms(ladder[i]) <= 20.0) expected = static_cast<long>(i);
    }
    for (const long known : {-1L, 0L, static_cast<long>(LadderIndex(200.0))}) {
      for (const size_t first_step : {1, 16}) {
        std::set<size_t> probed;
        size_t probes = 0;
        const long got =
            HighestPassing(ladder.size(), known, first_step, [&](size_t i) {
              CHECK(probed.insert(i).second);  // never probes a step twice
              CHECK(static_cast<long>(i) > known);
              ++probes;
              return p99_ms(ladder[i]) <= 20.0;
            });
        CHECK(got == expected);
        CHECK(probes <= 15);  // about 2 * log2(knee distance)
      }
    }
  }
  // A knee above any fixed window over the nominal rate is still found:
  // the search covers the whole ladder, up to its top step.
  const long nominal = static_cast<long>(LadderIndex(2000.0));
  for (const long knee : {nominal + 60, static_cast<long>(ladder.size()) - 1}) {
    std::set<size_t> probed;
    const long got = HighestPassing(ladder.size(), nominal, 16, [&](size_t i) {
      CHECK(probed.insert(i).second);
      return static_cast<long>(i) <= knee;
    });
    CHECK(got == knee);
    CHECK(probed.count(static_cast<size_t>(knee)) == 1);  // the top is probed
  }
  // Nothing passes.
  CHECK(HighestPassing(ladder.size(), -1, 1, [](size_t) { return false; }) ==
        -1);
  CHECK(HighestPassing(ladder.size(), 5, 16, [](size_t) { return false; }) ==
        5);
}

}  // namespace

int main() {
  PercentileNeedsTenBeyond();
  WindowedPercentileIgnoresOneStalledWindow();
  HotSetIsSeededAndStratified();
  ZipfIsSeeded();
  WindowedRateIgnoresOneStalledSlice();
  SelfTimeSubtractsCoveredChildTime();
  LadderSearchFindsTheKnee();
  if (failures > 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench logic: all checks passed\n");
  return 0;
}
