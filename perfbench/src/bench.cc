#include "bench.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>

#include "cell/cell_id.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

namespace perfbench {

Env Env::Create() {
  Env env;
  const gb::storage::PointTable raw = gb::workload::GenTaxi(kPoints);
  gb::storage::ExtractOptions extract;
  extract.clean_bounds = gb::workload::NycBounds();
  env.data = std::make_shared<const gb::storage::SortedDataset>(
      gb::storage::SortedDataset::Extract(raw, extract));
  env.neighborhoods = gb::workload::Neighborhoods(raw, kNeighborhoods);
  for (const gb::geo::Polygon& p : env.neighborhoods) {
    env.areas.push_back(p.Area());
  }
  env.request =
      gb::core::AggregateRequest::FirstN(kAggregates, env.data->num_columns());
  return env;
}

std::vector<std::vector<gb::core::GeoBlock::UpdateTuple>> MakeUpdateBatches(
    const Env& env, size_t count, size_t new_region_per_batch, uint64_t seed) {
  const gb::storage::SortedDataset& data = *env.data;
  const std::vector<uint64_t>& keys = data.keys();
  const gb::geo::Rect nyc = gb::workload::NycBounds();
  std::mt19937_64 rng(seed);
  auto unit = [&] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  auto values = [&] {
    std::vector<double> v(data.num_columns());
    for (double& x : v) x = static_cast<double>(rng() % 1000) / 8.0;
    return v;
  };
  // A level-kLevel cell holds data iff some sorted key lies in its range.
  auto populated = [&](gb::cell::CellId cell) {
    const auto it = std::lower_bound(keys.begin(), keys.end(),
                                     cell.RangeMin().id());
    return it != keys.end() && *it <= cell.RangeMax().id();
  };
  std::vector<std::vector<gb::core::GeoBlock::UpdateTuple>> batches(count);
  for (auto& batch : batches) {
    batch.reserve(kBatchTuples);
    for (size_t i = 0; i < kBatchTuples; ++i) {
      gb::core::GeoBlock::UpdateTuple t;
      if (i < kBatchTuples - new_region_per_batch) {
        const gb::cell::CellId cell =
            gb::cell::CellId(keys[rng() % keys.size()]).Parent(kLevel);
        t.location = data.projection().FromUnit(cell.CenterPoint());
      } else {
        for (;;) {
          const gb::geo::Point p{nyc.min.x + unit() * (nyc.max.x - nyc.min.x),
                                 nyc.min.y + unit() * (nyc.max.y - nyc.min.y)};
          const gb::cell::CellId cell =
              gb::cell::CellId::FromPoint(data.projection().ToUnit(p))
                  .Parent(kLevel);
          if (!populated(cell)) {
            t.location = p;
            break;
          }
        }
      }
      t.values = values();
      batch.push_back(std::move(t));
    }
  }
  return batches;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e = Entry{name, value, unit};
      return;
    }
  }
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Violation(const std::string& what) {
  std::printf("VIOLATION: %s\n", what.c_str());
  violations_.push_back(what);
}

void Report::FillMissing(
    std::span<const std::pair<const char*, const char*>> names) {
  for (const auto& [name, unit] : names) {
    const bool present =
        std::any_of(metrics_.begin(), metrics_.end(),
                    [&](const Entry& e) { return e.name == name; });
    if (!present) metrics_.push_back(Entry{name, 0.0, unit});
  }
}

std::string Report::Json(
    std::span<const std::pair<const char*, const char*>> names) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const Entry& e) { return e.name == names[i].first; });
    if (it == metrics_.end() || it->unit != names[i].second ||
        !std::isfinite(it->value)) {
      throw std::runtime_error(std::string("metric not measured: ") +
                               names[i].first);
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->value);
    out += (i ? ", \"" : "\"") + it->name + "\": {\"value\": " + value +
           ", \"unit\": \"" + it->unit + "\"}";
  }
  out += "}}";
  return out;
}

void Report::PrintTable() const {
  for (const Entry& e : metrics_) {
    std::printf("  %-28s %16.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  const double frac = attempted_ == 0 ? 0.0
                                      : static_cast<double>(failed_) /
                                            static_cast<double>(attempted_);
  std::printf("  %-28s %16.6g %s (%llu of %llu)\n", "failed_frac", frac,
              "ratio", static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
}

void SpanWriter::Write() const {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"request\": %llu, \"parent\": %ld}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.request), s.parent);
  }
  for (const auto& [key, delta] : stats_) {
    std::fprintf(f, "{\"stat\": \"%s\", \"delta\": %llu}\n", key.c_str(),
                 static_cast<unsigned long long>(delta));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path_);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SleepUntilNs(uint64_t t) {
  const uint64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

void SetTimerSlackNs(unsigned long ns) { prctl(PR_SET_TIMERSLACK, ns); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

IdleSpinners::IdleSpinners() {
  for (unsigned i = 0; i < Nproc(); ++i) {
    threads_.emplace_back([this] {
      const sched_param param{};
      if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

std::pair<uint64_t, uint64_t> CpuStealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return {0, 0};
  uint64_t total = 0;
  for (const unsigned long long x : v) total += x;
  return {v[7], total};
}

bool SameResult(const gb::core::QueryResult& a, uint64_t count,
                std::span<const double> values) {
  return a.count == count && a.values.size() == values.size() &&
         (values.empty() ||
          std::memcmp(a.values.data(), values.data(),
                      values.size() * sizeof(double)) == 0);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

double RequirePercentile(std::vector<double> samples, int pct,
                         const char* what) {
  const size_t n = samples.size();
  const std::optional<double> p = Percentile(std::move(samples), pct);
  if (!p) {
    throw std::runtime_error(std::string(what) + ": " + std::to_string(n) +
                             " samples are too few for p" +
                             std::to_string(pct));
  }
  return *p;
}

double RequireWindowed(std::span<const double> samples, int pct,
                       size_t min_window, const char* what) {
  const std::optional<double> p = WindowedPercentile(samples, pct, min_window);
  if (!p) {
    throw std::runtime_error(std::string(what) + ": " +
                             std::to_string(samples.size()) +
                             " samples are too few for a windowed p" +
                             std::to_string(pct));
  }
  return *p;
}

}  // namespace perfbench
