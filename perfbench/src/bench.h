// Shared harness pieces: run options, the fixed data set, the run report
// (metrics + correctness), timing and process helpers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/aggregate.h"
#include "core/geoblock.h"
#include "geo/polygon.h"
#include "logic.h"
#include "storage/sorted_dataset.h"

namespace perfbench {

namespace gb = geoblocks;

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for WAL and set files
};

// The data scale, identical in every run: the default taxi set and the
// paper's 195 neighborhoods at the reference level.
inline constexpr size_t kPoints = 1'000'000;
inline constexpr int kLevel = 17;
inline constexpr size_t kNeighborhoods = 195;
inline constexpr size_t kAggregates = 4;
inline constexpr size_t kBatchTuples = 256;

/// The generated inputs every workload shares (independent of --seed).
struct Env {
  std::shared_ptr<const gb::storage::SortedDataset> data;
  std::vector<gb::geo::Polygon> neighborhoods;
  std::vector<double> areas;        ///< per neighborhood, for the hot set
  gb::core::AggregateRequest request;  ///< the 4-aggregate SELECT

  static Env Create();
};

/// `count` update batches of kBatchTuples tuples each. Most tuples land at
/// the centre of a populated level-kLevel cell; `new_region_per_batch` of
/// each batch land in cells that hold no data, so pending-buffer merges run.
std::vector<std::vector<gb::core::GeoBlock::UpdateTuple>> MakeUpdateBatches(
    const Env& env, size_t count, size_t new_region_per_batch, uint64_t seed);

/// The outcome of one run: the metrics it prints, the operations it
/// attempted and saw fail, and whether every answer was correct.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a wrong answer or a broken invariant: the run is not correct.
  void Violation(const std::string& what);
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Adds 0-valued entries for `names` not measured by this workload.
  void FillMissing(std::span<const std::pair<const char*, const char*>> names);

  bool correct() const { return violations_.empty(); }
  /// The final result line: {"correct", "attempted", "failed", "metrics"},
  /// with exactly the metrics `names`; throws when one was not measured or
  /// is not finite (a p99 is +inf when over 1 % of requests failed).
  std::string Json(
      std::span<const std::pair<const char*, const char*>> names) const;
  /// One human-readable line per metric.
  void PrintTable() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> violations_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The traced run's span store: spans and counter deltas are kept in
/// memory and written out as JSON lines by Write, when the run ends.
class SpanWriter {
 public:
  explicit SpanWriter(std::string path) : path_(std::move(path)) {}
  /// @return The span's index, usable as a child's `parent`.
  long Add(const Span& span) {
    spans_.push_back(span);
    return static_cast<long>(spans_.size() - 1);
  }
  void Stat(const std::string& key, uint64_t delta) {
    stats_.emplace_back(key, delta);
  }
  /// Writes every span and stat; throws when the file cannot be written.
  void Write() const;

 private:
  std::string path_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::string, uint64_t>> stats_;
};

uint64_t NowNs();
void SleepUntilNs(uint64_t t);
/// Sets the calling thread's timer slack: how late the kernel may end its
/// sleeps to batch wake-ups (50 us by default).
void SetTimerSlackNs(unsigned long ns);
/// Peak resident set size of this process, in MiB.
double PeakRssMb();
/// Logical CPUs available to this process.
unsigned Nproc();
/// While alive, one thread per CPU spins under SCHED_IDLE: it runs only
/// when nothing else on its CPU is runnable and gives way to any wake-up at
/// once. The CPUs then never halt, so a wake-up in the served path does not
/// wait for the hypervisor to resume a halted virtual CPU, a wait that
/// grows with the host's load. The served workloads time their
/// nominal-rate phases under it; see README.md.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Cumulative (steal, total) CPU ticks of the machine from /proc/stat;
/// steal is time the hypervisor ran something else on this machine's
/// CPUs. Zeros where /proc/stat is not readable.
std::pair<uint64_t, uint64_t> CpuStealTicks();
bool SameResult(const gb::core::QueryResult& a, uint64_t count,
                std::span<const double> values);
/// Median of `samples` (empty -> 0).
double Median(std::vector<double> samples);
/// Percentile under the kMinBeyond rule; throws when the run collected
/// too few samples (a sizing bug in the benchmark, never a result).
double RequirePercentile(std::vector<double> samples, int pct,
                         const char* what);
/// WindowedPercentile(samples, pct, min_window), throwing like
/// RequirePercentile.
double RequireWindowed(std::span<const double> samples, int pct,
                       size_t min_window, const char* what);

// The workloads. Each fills `report` and returns normally; a wrong answer
// is a Violation, an internal error an exception.
void RunReadSkewed(const Options& options, const Env& env, Report* report);
void RunReadBudget(const Options& options, const Env& env, Report* report);
void RunIngestConcurrent(const Options& options, const Env& env,
                         Report* report);

}  // namespace perfbench
