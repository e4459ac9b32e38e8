// perfbench: the repository benchmark. One run executes one workload for a
// fixed time and prints, as its last line, one JSON object with the
// run's correctness, operation counts, and metrics: the end-to-end
// metrics, or with --trace 1 the per-layer metrics of a traced run.
//
//   perfbench --workload <read_skewed|read_budget|ingest_concurrent>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--commit <id>]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/scan_kernels.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using Names = std::vector<std::pair<const char*, const char*>>;

// Keep in step with BENCHMARK.json; run.py refuses a run whose metric
// names differ from it. read_p99_ms and update_p99_ms are measured and
// printed by every run but not listed: on the shared virtual machine the
// benchmark was defined on, their run-to-run spread exceeded any bound the
// benchmark may set (see README.md).
const Names kEndToEnd = {
    {"setup_s", "s"},
    {"read_p50_ms", "ms"},
    {"read_capacity_qps", "1/s"},
    {"update_tuples_per_s", "1/s"},
    {"rss_peak_mb", "MB"},
};

const Names kPerLayer = {
    {"server.wait_us", "us"},
    {"server.requests_per_batch", "count"},
    {"server.queue_rejected", "count"},
    {"protocol.decode_us", "us"},
    {"protocol.encode_us", "us"},
    {"cell.cover_us", "us"},
    {"cell.cover_cells", "count"},
    {"core.fold_us", "us"},
    {"core.count_us", "us"},
    {"core.shards_per_query", "count"},
    {"cache.hit_rate", "ratio"},
    {"cache.probes_per_query", "count"},
    {"cache.fold_us", "us"},
    {"mem.faults_per_kreq", "count"},
    {"mem.evictions_per_kreq", "count"},
    {"mem.refusals", "count"},
    {"mem.resident_over_budget", "ratio"},
    {"mem.fault_us", "us"},
    {"mem.open_s", "s"},
    {"core.apply_us", "us"},
    {"core.apply_p99_us", "us"},
    {"core.apply_solo_us", "us"},
    {"snapshot.interference_ratio", "ratio"},
    {"core.rebuilds_per_kbatch", "count"},
    {"wal.records_per_group", "count"},
    {"wal.bytes_per_tuple", "B"},
    {"wal.append_us", "us"},
    {"core.build_s", "s"},
    {"client.rtt_us", "us"},
    {"load.send_lag_p99_us", "us"},
    {"load.achieved_over_offered", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> [--commit <id>]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv, std::string* commit) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else if (flag == "--commit") {
      *commit = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (!have_seed || o.workdir.empty() || o.seconds <= 0) {
    Usage("--seed, --workdir and a positive --seconds are required");
  }
  return o;
}

int Main(int argc, char** argv) {
  std::string commit = "unknown";
  const Options options = Parse(argc, argv, &commit);
  void (*run)(const Options&, const Env&, Report*) = nullptr;
  if (options.workload == "read_skewed") run = RunReadSkewed;
  if (options.workload == "read_budget") run = RunReadBudget;
  if (options.workload == "ingest_concurrent") run = RunIngestConcurrent;
  if (run == nullptr) Usage("unknown workload");

  std::printf(
      "provenance: workload=%s seed=%llu trace=%d seconds=%g nproc=%u "
      "kernel_dispatch=%s pool_type=%s commit=%s scale=%zu points, level "
      "%d, %zu neighborhoods\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0, options.seconds, Nproc(),
      gb::core::kernels::ToString(gb::core::kernels::ActiveDispatchLevel()),
      gb::util::ThreadPool::pool_type(), commit.c_str(), kPoints, kLevel,
      kNeighborhoods);
  const Env env = Env::Create();
  Report report;
  const auto [steal0, total0] = CpuStealTicks();
  run(options, env, &report);
  const auto [steal1, total1] = CpuStealTicks();
  // Host noise, for reading the numbers: on a shared virtual machine a
  // high steal share slows every served phase.
  if (total1 > total0) {
    std::printf("host: %.2f %% of CPU time stolen by the hypervisor\n",
                100.0 * static_cast<double>(steal1 - steal0) /
                    static_cast<double>(total1 - total0));
  }

  const Names& names = options.trace ? kPerLayer : kEndToEnd;
  if (options.trace) report.FillMissing(names);
  std::printf("%s metrics:\n", options.trace ? "per-layer" : "end-to-end");
  report.PrintTable();
  std::printf("%s\n", report.Json(names).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
