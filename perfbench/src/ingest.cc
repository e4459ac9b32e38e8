// The in-process workload: ingest_concurrent. One writer streams
// kBatchTuples-tuple batches through BlockSet::ApplyBatchUpdate with a WAL
// attached (persist-first group commit, fsync on the local disk) while
// nproc - 1 reader threads run closed-loop SelectCached calls over the
// read_skewed popularity. This is the only workload in which a writer
// publishes while readers hold snapshots.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "cell/cell_id.h"
#include "core/block_set.h"
#include "io/update_log.h"
#include "storage/sharded_dataset.h"

namespace perfbench {
namespace {

using gb::core::BlockSet;
using UpdateBatch = std::vector<gb::core::GeoBlock::UpdateTuple>;

constexpr size_t kShards = 8;
// 1/8 of every batch lands in cells that hold no data, so pending
// buffers fill and merge-rebuilds run during the window (a few per
// thousand batches).
constexpr size_t kNewRegionPerBatch = kBatchTuples / 8;
constexpr size_t kSetupReps = 15;
constexpr size_t kBatchPool = 256;        // distinct batches, cycled
constexpr size_t kStreamLength = 1 << 15; // per-reader requests, cycled
constexpr size_t kReplayRequests = 4000;
constexpr size_t kSoloBatches = 1000;
constexpr size_t kAppendBatches = 500;

// Slices of a window over which rates are taken (WindowedRate).
constexpr size_t kRateSlices = 10;

/// One timed window of readers, with or without the writer.
struct Window {
  uint64_t start_ns = 0;
  uint64_t stop_ns = 0;
  std::vector<double> read_ms;
  std::vector<uint64_t> read_done_ns;
  uint64_t reads = 0;
  std::vector<double> apply_ms;
  std::vector<uint64_t> apply_done_ns;
  uint64_t batches = 0;
  uint64_t tuples = 0;
  uint64_t rebuilds = 0;
  uint64_t write_failures = 0;
  uint64_t first_batch = 0;  ///< index of the window's first batch
};

/// Shared state of the run: the set, the inputs, the count envelope.
struct Ingest {
  BlockSet* set = nullptr;
  const Env* env = nullptr;
  std::vector<UpdateBatch> batches;
  std::vector<std::vector<Request>> streams;  ///< one per reader
  std::vector<uint64_t> pre;                  ///< per-polygon count floor
  std::atomic<uint64_t> submitted{0};         ///< tuples offered since `pre`
  uint64_t next_batch = 0;
  std::atomic<uint64_t> range_errors{0};
};

Window RunWindow(Ingest& in, double seconds, bool writer,
                 SpanWriter* spans) {
  const size_t readers = in.streams.size();
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> read_ms(readers);
  std::vector<std::vector<uint64_t>> read_done(readers);
  std::vector<std::vector<Span>> read_spans(readers);
  Window w;
  w.first_batch = in.next_batch;
  w.start_ns = NowNs();
  std::vector<Span> apply_spans;

  std::vector<std::thread> threads;
  for (size_t t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<Request>& stream = in.streams[t];
      read_ms[t].reserve(1 << 20);
      read_done[t].reserve(1 << 20);
      size_t k = t * 7919;  // readers start at different points
      while (!stop.load(std::memory_order_relaxed)) {
        const Request& r = stream[k++ % stream.size()];
        const uint64_t a = NowNs();
        const gb::core::QueryResult res =
            in.set->SelectCached(in.env->neighborhoods[r.polygon],
                                 in.env->request);
        const uint64_t b = NowNs();
        const uint64_t ceiling =
            in.pre[r.polygon] + in.submitted.load(std::memory_order_acquire);
        if (res.count < in.pre[r.polygon] || res.count > ceiling) {
          in.range_errors.fetch_add(1);
        }
        read_ms[t].push_back(static_cast<double>(b - a) / 1e6);
        read_done[t].push_back(b);
        if (spans != nullptr) {
          read_spans[t].push_back(Span{"core.select_cached", a, b, k, -1});
        }
      }
    });
  }
  std::thread writer_thread;
  if (writer) {
    writer_thread = std::thread([&] {
      w.apply_ms.reserve(1 << 16);
      while (!stop.load(std::memory_order_relaxed)) {
        const UpdateBatch& batch =
            in.batches[in.next_batch++ % in.batches.size()];
        in.submitted.fetch_add(batch.size(), std::memory_order_release);
        const uint64_t a = NowNs();
        try {
          const BlockSet::SetUpdateResult r = in.set->ApplyBatchUpdate(batch);
          w.rebuilds += r.rebuilds;
        } catch (const std::exception& e) {
          std::printf("update failed: %s\n", e.what());
          ++w.write_failures;
          break;
        }
        const uint64_t b = NowNs();
        w.apply_ms.push_back(static_cast<double>(b - a) / 1e6);
        w.apply_done_ns.push_back(b);
        if (spans != nullptr) {
          apply_spans.push_back(Span{"core.apply", a, b, in.next_batch, -1});
        }
        ++w.batches;
        w.tuples += batch.size();
      }
    });
  }
  w.stop_ns = w.start_ns + static_cast<uint64_t>(seconds * 1e9);
  SleepUntilNs(w.stop_ns);
  stop.store(true);
  if (writer_thread.joinable()) writer_thread.join();
  for (std::thread& t : threads) t.join();

  for (size_t t = 0; t < readers; ++t) {
    w.read_ms.insert(w.read_ms.end(), read_ms[t].begin(), read_ms[t].end());
    w.read_done_ns.insert(w.read_done_ns.end(), read_done[t].begin(),
                          read_done[t].end());
    w.reads += read_ms[t].size();
    if (spans != nullptr) {
      for (const Span& s : read_spans[t]) spans->Add(s);
    }
  }
  if (spans != nullptr) {
    for (const Span& s : apply_spans) spans->Add(s);
  }
  return w;
}

}  // namespace

void RunIngestConcurrent(const Options& options, const Env& env,
                         Report* report) {
  gb::storage::ShardOptions shard_options;
  shard_options.num_shards = kShards;
  shard_options.align_level = kLevel;
  const gb::storage::ShardedDataset sharded =
      gb::storage::ShardedDataset::Partition(env.data, shard_options);
  const std::string wal_path = options.workdir + "/ingest.wal";

  // Set-up: Build, EnableCache and the WAL attach, kSetupReps times; the
  // last deployment is the one measured. Build runs on one thread: set-up
  // takes milliseconds, and a pool build let one stalled core move whole
  // runs' medians threefold.
  std::unique_ptr<BlockSet> set;
  std::unique_ptr<gb::io::UpdateLog> log;
  std::vector<double> setup_s, build_s;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    if (set) set->AttachLog(nullptr);
    log.reset();
    set.reset();
    std::remove(wal_path.c_str());
    const uint64_t t0 = NowNs();
    set = std::make_unique<BlockSet>(
        BlockSet::Build(sharded, gb::core::BlockSetOptions{{kLevel, {}}}));
    build_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    set->EnableCache(gb::core::GeoBlockQC::Options{});
    log = gb::io::UpdateLog::Open(wal_path);
    set->AttachLog(log.get());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  Ingest in;
  in.set = set.get();
  in.env = &env;
  in.batches = MakeUpdateBatches(env, kBatchPool, kNewRegionPerBatch,
                                 DeriveSeed(options.seed, 5));
  const std::vector<uint32_t> hot =
      HotSet(env.areas, 0.10, DeriveSeed(options.seed, 1));
  const size_t readers = std::max(1u, Nproc() - 1);
  for (size_t t = 0; t < readers; ++t) {
    in.streams.push_back(SkewedStream(kStreamLength, hot,
                                      env.neighborhoods.size(),
                                      DeriveSeed(options.seed, 10 + t)));
  }

  // The count floor, then a warm-up of the readers' caches with no writer.
  for (const gb::geo::Polygon& poly : env.neighborhoods) {
    in.pre.push_back(set->SelectCached(poly, env.request).count);
  }
  (void)RunWindow(in, 0.5, /*writer=*/false, nullptr);
  const std::vector<gb::cell::CellId> root{gb::cell::CellId::Root()};
  const uint64_t base_total = set->CountCovering(root);
  uint64_t acked = 0;
  uint64_t batches = 0;
  auto account = [&](const Window& w) {
    acked += w.tuples;
    batches += w.batches;
    report->Count(w.reads + w.batches + w.write_failures, w.write_failures);
  };

  if (!options.trace) {
    const Window w = RunWindow(in, options.seconds, /*writer=*/true, nullptr);
    account(w);
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("read_p50_ms", RequirePercentile(w.read_ms, 50, "read"),
                   "ms");
    report->Metric("read_p99_ms", RequireWindowed(w.read_ms, 99, 0, "read"),
                   "ms");
    report->Metric(
        "read_capacity_qps",
        WindowedRate(w.read_done_ns, w.start_ns, w.stop_ns, kRateSlices), "1/s");
    report->Metric("update_tuples_per_s",
                   kBatchTuples * WindowedRate(w.apply_done_ns, w.start_ns,
                                               w.stop_ns, kRateSlices),
                   "1/s");
    report->Metric("update_p99_ms",
                   RequireWindowed(w.apply_ms, 99, 0, "update"),
                   "ms");
    std::printf("window %.1f s: %llu reads, %llu batches, %llu rebuilds\n",
                options.seconds, static_cast<unsigned long long>(w.reads),
                static_cast<unsigned long long>(w.batches),
                static_cast<unsigned long long>(w.rebuilds));
  } else {
    // Traced run: the window untraced, then again with spans and counters
    // recorded; the difference is the tracing overhead.
    const Window plain =
        RunWindow(in, options.seconds / 2, /*writer=*/true, nullptr);
    account(plain);
    SpanWriter spans(options.workdir + "/trace.jsonl");
    set->ResetCacheCounters();
    const gb::io::UpdateLog::Stats wal_before = log->stats();
    const Window w = RunWindow(in, options.seconds / 2, /*writer=*/true, &spans);
    const gb::io::UpdateLog::Stats wal_after = log->stats();
    const gb::core::CacheCounters cache = set->MergedCacheCounters();
    account(w);

    const double apply_us = Median(w.apply_ms) * 1e3;
    report->Metric("core.apply_us", apply_us, "us");
    report->Metric("core.apply_p99_us",
                   RequirePercentile(w.apply_ms, 99, "update") * 1e3, "us");
    report->Metric("core.rebuilds_per_kbatch",
                   1000.0 * static_cast<double>(w.rebuilds) /
                       static_cast<double>(std::max<uint64_t>(1, w.batches)),
                   "count");
    const uint64_t groups = wal_after.groups_committed - wal_before.groups_committed;
    const uint64_t records =
        wal_after.records_appended - wal_before.records_appended;
    report->Metric("wal.records_per_group",
                   groups ? static_cast<double>(records) /
                                static_cast<double>(groups)
                          : 0.0,
                   "count");
    report->Metric("wal.bytes_per_tuple",
                   static_cast<double>(wal_after.bytes_committed -
                                       wal_before.bytes_committed) /
                       static_cast<double>(std::max<uint64_t>(1, w.tuples)),
                   "B");
    report->Metric("cache.hit_rate", cache.HitRate(), "ratio");
    report->Metric("cache.probes_per_query",
                   static_cast<double>(cache.probes) /
                       static_cast<double>(std::max<uint64_t>(1, w.reads)),
                   "count");
    report->Metric("trace.overhead_ratio",
                   Median(w.read_ms) / Median(plain.read_ms), "ratio");
    report->Metric("core.build_s", Median(build_s), "s");

    // The same batch stream with no readers: the writer's cost alone.
    std::vector<double> solo_ms;
    for (size_t k = 0; k < std::min<uint64_t>(kSoloBatches, w.batches); ++k) {
      const UpdateBatch& batch =
          in.batches[(w.first_batch + k) % in.batches.size()];
      in.submitted.fetch_add(batch.size());
      const uint64_t a = NowNs();
      (void)set->ApplyBatchUpdate(batch);
      const uint64_t b = NowNs();
      solo_ms.push_back(static_cast<double>(b - a) / 1e6);
      spans.Add(Span{"core.apply_solo", a, b, k, -1});
      acked += batch.size();
      ++batches;
    }
    const double solo_us = Median(solo_ms) * 1e3;
    report->Metric("core.apply_solo_us", solo_us, "us");
    report->Metric("snapshot.interference_ratio",
                   solo_us > 0 ? apply_us / solo_us : 0.0, "ratio");

    // UpdateLog::Append alone, of the same batches, on a scratch log.
    {
      const std::string scratch = options.workdir + "/append.wal";
      std::remove(scratch.c_str());
      auto append_log = gb::io::UpdateLog::Open(scratch);
      std::vector<double> append_us;
      for (size_t k = 0; k < kAppendBatches; ++k) {
        const UpdateBatch& batch =
            in.batches[(w.first_batch + k) % in.batches.size()];
        const uint64_t a = NowNs();
        (void)append_log->Append(batch);
        const uint64_t b = NowNs();
        append_us.push_back(static_cast<double>(b - a) / 1e3);
        spans.Add(Span{"wal.append", a, b, k, -1});
      }
      report->Metric("wal.append_us", Median(append_us), "us");
      append_log.reset();
      std::remove(scratch.c_str());
    }

    // Layer-by-layer replay of reader 0's requests on one thread.
    std::vector<double> cover_us, cache_us;
    double cells = 0.0, shard_count = 0.0;
    std::vector<gb::cell::CellId> covering;
    std::vector<size_t> shard_ids;
    for (size_t j = 0; j < kReplayRequests; ++j) {
      const Request& r = in.streams[0][j % in.streams[0].size()];
      const uint64_t a = NowNs();
      set->CoverInto(env.neighborhoods[r.polygon], &covering);
      const uint64_t b = NowNs();
      (void)set->SelectCoveringCached(covering, env.request);
      const uint64_t c = NowNs();
      set->OverlappingShards(covering, &shard_ids);
      const long root_id = spans.Add(Span{"replay.request", a, c, j, -1});
      spans.Add(Span{"cell.cover", a, b, j, root_id});
      spans.Add(Span{"cache.fold", b, c, j, root_id});
      cover_us.push_back(static_cast<double>(b - a) / 1e3);
      cache_us.push_back(static_cast<double>(c - b) / 1e3);
      cells += static_cast<double>(covering.size());
      shard_count += static_cast<double>(shard_ids.size());
    }
    report->Metric("cell.cover_us", Median(cover_us), "us");
    report->Metric("cell.cover_cells", cells / kReplayRequests, "count");
    report->Metric("cache.fold_us", Median(cache_us), "us");
    report->Metric("core.shards_per_query", shard_count / kReplayRequests,
                   "count");
    spans.Write();
  }

  // Quiesced: every acknowledged tuple counted exactly once, every batch
  // durable, no count ever outside its envelope.
  set->FlushPendingUpdates();
  if (in.range_errors.load() > 0) {
    report->Violation(std::to_string(in.range_errors.load()) +
                      " reads outside [pre, pre + applied]");
  }
  if (set->CountCovering(root) != base_total + acked) {
    report->Violation("acknowledged tuples not counted exactly once");
  }
  if (set->change_number() != batches ||
      log->durable_change_number() != batches) {
    report->Violation("acknowledged batches missing from the WAL");
  }
  set->AttachLog(nullptr);
  log.reset();
  std::remove(wal_path.c_str());
  report->Metric("rss_peak_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
