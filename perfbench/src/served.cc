// The served workloads: read_skewed and read_budget. Load comes from this
// process over real sockets to a QueryServer in the same process, open
// loop: kConnections connections, each with one sender thread that sends
// on a fixed schedule whether or not answers have come back, and one
// receiver thread that matches answers to requests by cookie. Latency is
// timed from each request's scheduled send, so a stall is charged to every
// request it delays.
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "cell/cell_id.h"
#include "core/block_set.h"
#include "core/memory_governor.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/sharded_dataset.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using gb::core::BlockSet;
using gb::core::QueryResult;
using gb::server::Client;

// Two connections, each driven by a sender and a receiver thread: four
// client threads on the four-core reference host.
constexpr size_t kConnections = 2;
// A ladder step passes when its p99 is within kLatencyLimitMs and it
// achieved at least kMinAchieved of the offered rate. The limit is 100 ms,
// not 20 ms: on the shared virtual machine the benchmark was defined on,
// host stalls of 20 ms and more come several times a second in busy
// spells, and with a 20 ms limit read_skewed's capacity over ten seeds
// ranged from 2760/s to 19400/s as steps near the knee failed by chance.
// read_budget's p99 is near 20 ms already at its nominal rate.
constexpr double kLatencyLimitMs = 100.0;
constexpr double kMinAchieved = 0.95;
// A failed ladder step is tried once more unless it achieved less than
// this share of the offered rate.
constexpr double kRetryAchieved = 0.8;
// Shortest ladder step; slower steps run until they hold the workload's
// number of p99 windows (Shape::step_windows).
constexpr double kStepSeconds = 0.5;
// The capacity search's first step above the nominal rate, in ladder
// rungs (2.2x): steps near the nominal rate are the slowest to run.
constexpr size_t kFirstStep = 16;
// How long a phase waits for answers after its last scheduled send.
constexpr uint64_t kDrainNs = 5'000'000'000;
// Requests of the traced window that are replayed layer by layer.
constexpr size_t kReplayRequests = 4000;
// Served UPDATE frames in the write probe that follows the read phases,
// kept kUpdateDepth in flight on one connection: twice the server's
// largest batch, so the batcher finds the next batch waiting when it
// finishes one, and the probe measures the write path, not wake-ups.
constexpr size_t kUpdateFrames = 10000;
constexpr size_t kUpdateDepth = 128;
constexpr size_t kUpdateSlices = 10;
// read_p50_ms is the median of the p50s of windows of this many requests.
constexpr size_t kP50Window = 1000;
constexpr size_t kSetupReps = 15;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// What each served workload fixes: its shard count, cache, memory budget,
/// request popularity, nominal rate, ladder step length, and whether the
/// server fans batches out over an engine pool.
struct Shape {
  const char* name;
  size_t shards;
  bool cache;
  double budget_fraction;  ///< of the fully resident footprint; 0 = none
  bool zipf;               ///< Zipf(s=1) popularity, else the hot set
  double nominal_qps;      ///< fixed; never calibrated per run
  size_t step_windows;     ///< p99 windows a ladder step holds at least
  bool engine_pool;        ///< ServerOptions::pool set, else batches run inline
};

// OPEN BLOCKER: read_budget serves without an engine pool. With one, pool
// workers fault shards concurrently, and MemoryGovernor::EnsureBudget sorts
// its eviction candidates with a comparator that reads recency counters
// other workers keep bumping (Touch); the order is then inconsistent and
// std::sort crashes the process (SIGSEGV inside EnsureBudget, 2 runs in
// 11). Until the engine snapshots the sort keys before sorting, batches run
// inline on the batcher thread, which keeps every governor call on one
// thread; read_budget's numbers will move when the pool is turned on.
//
// read_skewed's ladder steps hold three p99 windows, so one stalled
// window does not fail a step; read_budget's hold one, because at its rates
// a window alone takes seconds.
constexpr Shape kReadSkewed{"read_skewed", 8, true, 0.0, false, 2000.0, 3,
                            true};
constexpr Shape kReadBudget{"read_budget", 32, false, 0.10, true, 100.0, 1,
                            false};
// Every phase sends at least this many requests, so it has a p99.
const size_t kMinPhaseRequests = MinSamplesFor(99) + MinSamplesFor(99) / 10;

/// Answers taken through the server before timing, one request at a time.
struct Oracle {
  std::vector<QueryResult> select;
  std::vector<uint64_t> count;
};

Oracle TakeOracle(uint16_t port, const Env& env) {
  Client client = Client::Connect(port);
  Oracle oracle;
  for (const gb::geo::Polygon& poly : env.neighborhoods) {
    oracle.select.push_back(client.Select(poly, env.request));
    oracle.count.push_back(client.Count(poly));
  }
  return oracle;
}

/// Trace-mode recording of one phase: the frames sent and a client
/// round-trip span per answered request, for the first `limit` requests.
struct Capture {
  size_t limit = 0;
  std::vector<std::string> frames;
  std::vector<Span> rtt;
};

/// The result of one open-loop phase at one offered rate.
struct Phase {
  double offered = 0.0;
  /// Answered OK per second over the send window: OK answers that came
  /// back by the end of the send window plus kLatencyLimitMs, over the
  /// send window's length. A late straggler at the end does not lower it.
  double achieved = 0.0;
  size_t requests = 0;
  size_t ok = 0;
  size_t refused = 0;     ///< kBusy
  size_t errored = 0;     ///< other non-OK status or transport failure
  size_t timed_out = 0;   ///< no answer within kDrainNs of the last send
  size_t wrong = 0;
  std::vector<double> latency_ms;  ///< from scheduled send; +inf unless OK
  std::vector<double> send_lag_ms;

  size_t failed() const { return refused + errored + timed_out; }
  bool saturated() const { return achieved < kMinAchieved * offered; }
};

enum Outcome : uint8_t { kPending, kOk, kRefused, kErrored, kWrong };

Outcome Classify(const gb::server::Response& resp, const Request& req,
                 const Oracle& oracle) {
  using gb::server::Status;
  if (resp.status == Status::kBusy) return kRefused;
  if (resp.status != Status::kOk) return kErrored;
  try {
    if (req.count) {
      return gb::server::DecodeCountResult(resp.payload) ==
                     oracle.count[req.polygon]
                 ? kOk
                 : kWrong;
    }
    const gb::server::SelectResult r =
        gb::server::DecodeSelectResult(resp.payload);
    return SameResult(oracle.select[req.polygon], r.count, r.values) ? kOk
                                                                      : kWrong;
  } catch (const gb::server::ProtocolError&) {
    return kWrong;
  }
}

/// Sends `reqs` at `rate` per second over fresh connections and checks
/// every answer against `oracle`. `deadline_ms` (0 for none) is the
/// server-side deadline each request carries, so a saturated ladder step's
/// backlog is dropped, not served.
Phase RunOpenLoop(uint16_t port, const Env& env, const Oracle& oracle,
                  const std::vector<Request>& reqs, double rate,
                  uint32_t deadline_ms, Capture* capture) {
  const size_t n = reqs.size();
  std::vector<std::atomic<uint64_t>> sent(n);
  std::vector<uint64_t> done(n, 0);
  std::vector<Outcome> outcome(n, kPending);
  std::vector<std::vector<Span>> spans(kConnections);
  if (capture != nullptr) {
    capture->frames.assign(std::min(n, capture->limit), std::string());
    for (auto& s : spans) s.reserve(capture->limit / kConnections + 1);
  }
  std::vector<Client> clients;
  for (size_t c = 0; c < kConnections; ++c) {
    Client::Options copts;
    copts.tenant = static_cast<uint32_t>(c);
    clients.push_back(Client::Connect(port, copts));
  }
  const double interval_ns = 1e9 / rate;
  const uint64_t t0 = NowNs() + 2'000'000;
  auto scheduled = [&](size_t j) {
    return t0 + static_cast<uint64_t>(static_cast<double>(j) * interval_ns);
  };
  std::atomic<size_t> receivers_done{0};
  std::atomic<size_t> stray{0};

  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {  // sender
      SetTimerSlackNs(1);
      std::string buf;
      size_t next = c;
      try {
        while (next < n) {
          SleepUntilNs(scheduled(next));
          const uint64_t now = NowNs();
          buf.clear();
          const size_t first = next;
          for (size_t k = 0; next < n && scheduled(next) <= now && k < 256;
               ++k, next += kConnections) {
            const Request& r = reqs[next];
            const gb::geo::Polygon& poly = env.neighborhoods[r.polygon];
            const uint32_t tenant = static_cast<uint32_t>(c);
            std::string frame =
                r.count ? gb::server::EncodeCount(tenant, next + 1, poly,
                                                  deadline_ms)
                        : gb::server::EncodeSelect(tenant, next + 1, poly,
                                                   env.request, deadline_ms);
            if (capture != nullptr && next < capture->frames.size()) {
              capture->frames[next] = frame;
            }
            buf += frame;
          }
          const uint64_t at = NowNs();
          for (size_t j = first; j < next; j += kConnections) {
            sent[j].store(at, std::memory_order_release);
          }
          clients[c].SendBytes(buf);
        }
      } catch (const std::exception&) {
        // The connection broke: the unsent rest times out below.
      }
    });
    threads.emplace_back([&, c] {  // receiver
      const size_t expected = (n + kConnections - 1 - c) / kConnections;
      size_t got = 0;
      gb::server::Response resp;
      try {
        while (got < expected && clients[c].ReadResponse(&resp)) {
          const uint64_t now = NowNs();
          const size_t j = static_cast<size_t>(resp.cookie - 1);
          if (resp.cookie == 0 || j >= n || j % kConnections != c ||
              done[j] != 0) {
            stray.fetch_add(1);
            continue;
          }
          done[j] = now;
          outcome[j] = Classify(resp, reqs[j], oracle);
          if (capture != nullptr && j < capture->limit) {
            spans[c].push_back(Span{"client.rtt",
                                    sent[j].load(std::memory_order_acquire),
                                    now, j, -1});
          }
          ++got;
        }
      } catch (const std::exception&) {
        // Unblocked by the drain deadline, or the connection broke.
      }
      receivers_done.fetch_add(1);
    });
  }
  for (size_t c = 0; c < kConnections; ++c) threads[2 * c].join();
  const uint64_t deadline = std::max(NowNs(), scheduled(n)) + kDrainNs;
  while (receivers_done.load() < kConnections && NowNs() < deadline) {
    SleepUntilNs(NowNs() + 1'000'000);
  }
  if (receivers_done.load() < kConnections) {
    for (Client& client : clients) ::shutdown(client.fd(), SHUT_RDWR);
  }
  for (size_t c = 0; c < kConnections; ++c) threads[2 * c + 1].join();

  Phase p;
  p.offered = rate;
  p.requests = n;
  p.latency_ms.resize(n, kInf);
  const uint64_t window_end = scheduled(n);
  const uint64_t counted_until =
      window_end + static_cast<uint64_t>(kLatencyLimitMs * 1e6);
  size_t on_time = 0;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t s = sent[j].load();
    if (s != 0) {
      p.send_lag_ms.push_back(
          static_cast<double>(s > scheduled(j) ? s - scheduled(j) : 0) / 1e6);
    }
    switch (outcome[j]) {
      case kOk:
        ++p.ok;
        p.latency_ms[j] = static_cast<double>(done[j] - scheduled(j)) / 1e6;
        if (done[j] <= counted_until) ++on_time;
        break;
      case kRefused: ++p.refused; break;
      case kErrored: ++p.errored; break;
      case kWrong: ++p.wrong; break;
      case kPending: ++p.timed_out; break;
    }
  }
  p.wrong += stray.load();
  p.achieved = static_cast<double>(on_time) * 1e9 /
               static_cast<double>(window_end - t0);
  if (capture != nullptr) {
    capture->rtt.clear();
    for (auto& s : spans) {
      capture->rtt.insert(capture->rtt.end(), s.begin(), s.end());
    }
  }
  return p;
}

std::vector<Request> MakeStream(const Shape& shape, const Env& env,
                                size_t n, uint64_t seed, uint64_t salt) {
  const uint64_t s = DeriveSeed(seed, salt);
  if (shape.zipf) return ZipfStream(n, env.neighborhoods.size(), s);
  const std::vector<uint32_t> hot = HotSet(env.areas, 0.10, DeriveSeed(seed, 1));
  return SkewedStream(n, hot, env.neighborhoods.size(), s);
}

/// One deployment of the engine: governor (if any), set and server.
/// Members are destroyed server first.
struct Deployment {
  std::unique_ptr<gb::core::MemoryGovernor> governor;
  std::unique_ptr<BlockSet> set;
  std::unique_ptr<gb::server::QueryServer> server;
};

struct Setup {
  Deployment live;
  double setup_s = 0.0;   ///< median over kSetupReps
  double build_s = 0.0;   ///< median BlockSet::Build
  double open_s = 0.0;    ///< median OpenMapped (budgeted shape)
  uint64_t budget = 0;
};

Setup SetUp(const Shape& shape, const Options& options, const Env& env,
            gb::util::ThreadPool* pool) {
  gb::storage::ShardOptions shard_options;
  shard_options.num_shards = shape.shards;
  shard_options.align_level = kLevel;
  const gb::storage::ShardedDataset sharded =
      gb::storage::ShardedDataset::Partition(env.data, shard_options);
  const gb::core::BlockSetOptions set_options{{kLevel, {}}};
  gb::server::ServerOptions server_options;
  if (shape.engine_pool) server_options.pool = pool;

  Setup out;
  std::vector<double> setup_s, build_s, open_s;
  const std::string path = options.workdir + "/" + shape.name + ".gbst";
  std::unique_ptr<BlockSet> built;
  if (shape.budget_fraction > 0) {
    // The file being served, and its fully resident footprint: an
    // unlimited governor only accounts, and a root covering routes
    // through (and charges) every shard.
    const uint64_t b0 = NowNs();
    built = std::make_unique<BlockSet>(BlockSet::Build(sharded, set_options));
    build_s.push_back(static_cast<double>(NowNs() - b0) / 1e9);
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      built->WriteTo(f);
    }
    gb::core::MemoryGovernor probe(gb::core::MemoryGovernor::Options{0});
    gb::core::LazyOpenOptions lazy;
    lazy.governor = &probe;
    const BlockSet full = BlockSet::OpenMapped(path, lazy);
    const std::vector<gb::cell::CellId> root{gb::cell::CellId::Root()};
    (void)full.CountCovering(root);
    out.budget = static_cast<uint64_t>(
        static_cast<double>(probe.resident_bytes()) * shape.budget_fraction);
  }
  // Builds run on one thread: set-up takes milliseconds, and a pool build
  // let one stalled core move whole runs' medians threefold.
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    Deployment d;
    const uint64_t t0 = NowNs();
    if (shape.budget_fraction > 0) {
      {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        built->WriteTo(f);
      }
      d.governor = std::make_unique<gb::core::MemoryGovernor>(
          gb::core::MemoryGovernor::Options{out.budget});
      gb::core::LazyOpenOptions lazy;
      lazy.governor = d.governor.get();
      const uint64_t o0 = NowNs();
      d.set = std::make_unique<BlockSet>(BlockSet::OpenMapped(path, lazy));
      open_s.push_back(static_cast<double>(NowNs() - o0) / 1e9);
    } else {
      d.set = std::make_unique<BlockSet>(BlockSet::Build(sharded, set_options));
      build_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    if (shape.cache) d.set->EnableCache(gb::core::GeoBlockQC::Options{});
    gb::server::ServerOptions so = server_options;
    so.memory = d.governor.get();
    d.server = std::make_unique<gb::server::QueryServer>(d.set.get(), so);
    d.server->Start();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (rep + 1 == kSetupReps) {
      out.live = std::move(d);
    } else {
      d.server->Stop();
    }
  }
  out.setup_s = Median(setup_s);
  out.build_s = Median(build_s);
  out.open_s = Median(open_s);
  return out;
}

std::string FormatMs(std::optional<double> ms) {
  return ms ? std::to_string(*ms) + " ms" : std::string("n/a");
}

void PrintPhase(const char* label, const Phase& p) {
  std::printf(
      "%s: offered %.1f/s achieved %.1f/s (%.3f) requests %zu ok %zu "
      "refused %zu errored %zu timed_out %zu send_lag_p50 %s p99 %s "
      "whole-phase p50 %s p99 %s%s\n",
      label, p.offered, p.achieved, p.achieved / p.offered, p.requests, p.ok,
      p.refused, p.errored, p.timed_out,
      FormatMs(Percentile(p.send_lag_ms, 50)).c_str(),
      FormatMs(Percentile(p.send_lag_ms, 99)).c_str(),
      FormatMs(Percentile(p.latency_ms, 50)).c_str(),
      FormatMs(Percentile(p.latency_ms, 99)).c_str(),
      p.saturated() ? " SATURATED" : "");
}

void CheckPhase(const char* label, const Phase& p, Report* report) {
  if (p.wrong > 0) {
    report->Violation(std::string(label) + ": " + std::to_string(p.wrong) +
                      " answers differ from the oracle");
  }
}

/// The capacity search over the fixed ladder above the nominal rate
/// (HighestPassing: gallop up, then bisect). A step passes when it is not
/// saturated and its windowed p99 is within kLatencyLimitMs; a failing
/// step is tried once more, so one host stall does not end the search.
/// Returns the achieved rate of the highest passing step, or, when even the
/// nominal rate fails twice, the nominal phase's achieved rate.
double Capacity(const Shape& shape, const Options& options, const Env& env,
                const Oracle& oracle, uint16_t port, const Phase& nominal,
                Report* report) {
  const std::vector<double>& ladder = RateLadder();
  const size_t nominal_index = LadderIndex(shape.nominal_qps);
  const auto limit_ms = static_cast<uint32_t>(kLatencyLimitMs);
  auto passes = [&](const Phase& p) {
    if (p.saturated()) return false;
    const auto p99 = WindowedPercentile(p.latency_ms, 99);
    return p99 && *p99 <= kLatencyLimitMs;
  };
  std::vector<double> achieved(ladder.size(), 0.0);
  double last_achieved = 0.0;
  auto attempt = [&](size_t i, uint64_t salt) {
    const double rate = ladder[i];
    const size_t n = std::max(shape.step_windows * kMinPhaseRequests,
                              static_cast<size_t>(rate * kStepSeconds));
    const Phase p = RunOpenLoop(
        port, env, oracle, MakeStream(shape, env, n, options.seed, salt),
        rate, limit_ms, nullptr);
    CheckPhase("ladder", p, report);
    last_achieved = p.achieved;
    const bool ok = passes(p);
    if (ok) achieved[i] = p.achieved;
    if (p.saturated()) {
      std::printf("ladder %8.1f/s: achieved %8.1f/s SATURATED\n", rate,
                  p.achieved);
    } else {
      std::printf("ladder %8.1f/s: achieved %8.1f/s p99 %s -> %s\n", rate,
                  p.achieved,
                  FormatMs(WindowedPercentile(p.latency_ms, 99)).c_str(),
                  ok ? "pass" : "fail");
    }
    return ok;
  };
  // A step that fell short by more than a stall explains (achieved below
  // kRetryAchieved of offered) is far past capacity: no retry.
  auto probe = [&](size_t i) {
    if (attempt(i, 100 + i)) return true;
    return last_achieved >= kRetryAchieved * ladder[i] && attempt(i, 1000 + i);
  };
  long known = -1;
  if (passes(nominal)) {
    known = static_cast<long>(nominal_index);
    achieved[nominal_index] = nominal.achieved;
  } else if (probe(nominal_index)) {
    known = static_cast<long>(nominal_index);
  } else {
    std::printf("ladder: the nominal rate fails; reporting its achieved "
                "rate\n");
    return nominal.achieved;
  }
  const long best =
      HighestPassing(ladder.size(), known, kFirstStep, probe);
  if (static_cast<size_t>(best) + 1 == ladder.size()) {
    std::printf("ladder: the top step passes; capacity is at least %.1f/s\n",
                ladder.back());
  }
  return achieved[static_cast<size_t>(best)];
}

/// The served write path after the read phases: one client sends
/// kUpdateFrames UPDATE frames of kBatchTuples in-cell tuples, keeping
/// kUpdateDepth in flight, so the batcher coalesces them as it would
/// concurrent writers' and the rate measures the write path, not one round
/// trip's wake-ups. Every acknowledged tuple must then be counted exactly
/// once.
void UpdateProbe(const Options& options, const Env& env, Deployment& d,
                 Report* report) {
  const auto batches = MakeUpdateBatches(env, 64, 0, DeriveSeed(options.seed, 7));
  const std::vector<gb::cell::CellId> root{gb::cell::CellId::Root()};
  const uint64_t before = d.set->CountCovering(root);
  const uint64_t tuples_before = d.server->stats().update_tuples;
  Client writer = Client::Connect(d.server->port());
  std::vector<uint64_t> sent_ns(kUpdateFrames, 0);
  std::vector<double> lat_ms;
  std::vector<uint64_t> done_ns;
  uint64_t acked = 0;
  uint64_t failed = 0;
  size_t next = 0;
  auto send = [&] {
    const auto& batch = batches[next % batches.size()];
    sent_ns[next] = NowNs();
    writer.SendBytes(gb::server::EncodeUpdate(0, next + 1, batch));
    ++next;
  };
  const uint64_t t0 = NowNs();
  while (next < kUpdateDepth) send();
  gb::server::Response resp;
  for (size_t got = 0; got < kUpdateFrames; ++got) {
    if (!writer.ReadResponse(&resp)) {
      throw std::runtime_error("update probe: the connection closed");
    }
    const uint64_t now = NowNs();
    const size_t k = static_cast<size_t>(resp.cookie - 1);
    if (resp.cookie == 0 || k >= next) {
      report->Violation("update probe: an answer to no request");
      continue;
    }
    if (resp.status == gb::server::Status::kOk) {
      const uint64_t accepted = gb::server::DecodeUpdateAck(resp.payload).accepted;
      acked += accepted;
      if (accepted != batches[k % batches.size()].size()) {
        report->Violation("update acknowledged a partial batch");
      }
      done_ns.push_back(now);
      lat_ms.push_back(static_cast<double>(now - sent_ns[k]) / 1e6);
    } else {
      lat_ms.push_back(kInf);
      ++failed;
    }
    if (next < kUpdateFrames) send();
  }
  const uint64_t t1 = NowNs();
  report->Count(kUpdateFrames, failed);
  if (d.set->CountCovering(root) != before + acked ||
      d.server->stats().update_tuples - tuples_before != acked) {
    report->Violation("acknowledged update tuples not counted exactly once");
  }
  report->Metric("update_tuples_per_s",
                 kBatchTuples * WindowedRate(done_ns, t0, t1, kUpdateSlices),
                 "1/s");
  report->Metric("update_p99_ms", RequireWindowed(lat_ms, 99, 0, "update"),
                 "ms");
}

std::vector<std::pair<std::string, uint64_t>> StatsDelta(
    const std::vector<std::pair<std::string, uint64_t>>& before,
    const std::vector<std::pair<std::string, uint64_t>>& after) {
  std::vector<std::pair<std::string, uint64_t>> delta;
  for (const auto& [key, value] : after) {
    uint64_t base = 0;
    for (const auto& [k, v] : before) {
      if (k == key) base = v;
    }
    delta.emplace_back(key, value - base);
  }
  return delta;
}

/// Single-threaded replay of the traced window's requests through the
/// public layer functions the server calls for them, on the recorded
/// frames. Each request's layer spans are children of a replay root; the
/// served wait is the round trip minus those spans.
void ReplayServed(const Shape& shape, const BlockSet& set,
                  const Oracle& oracle, const std::vector<Request>& reqs,
                  const Capture& capture, SpanWriter* spans, Report* report) {
  std::vector<double> decode_us, encode_us, cover_us, fold_us, count_us,
      cache_us, wait_us;
  double cells = 0.0, shards = 0.0;
  size_t replayed = 0, wrong = 0;
  std::vector<gb::cell::CellId> covering;
  std::vector<size_t> shard_ids;
  std::vector<const Span*> rtt_of(capture.frames.size(), nullptr);
  for (const Span& s : capture.rtt) rtt_of[s.request] = &s;
  for (size_t j = 0; j < capture.frames.size(); ++j) {
    if (rtt_of[j] == nullptr) continue;  // not answered OK
    const std::string_view body =
        std::string_view(capture.frames[j]).substr(sizeof(uint32_t));
    std::vector<Span> children;
    auto timed = [&](const char* name, std::vector<double>* out, auto&& fn) {
      const uint64_t a = NowNs();
      fn();
      const uint64_t b = NowNs();
      children.push_back(Span{name, a, b, j, 0});
      out->push_back(static_cast<double>(b - a) / 1e3);
    };
    const uint64_t root_start = NowNs();
    gb::server::Request req;
    timed("protocol.decode", &decode_us,
          [&] { req = gb::server::DecodeRequest(body); });
    timed("cell.cover", &cover_us, [&] { set.CoverInto(req.polygon, &covering); });
    set.OverlappingShards(covering, &shard_ids);
    cells += static_cast<double>(covering.size());
    shards += static_cast<double>(shard_ids.size());
    const uint32_t poly = reqs[j].polygon;
    std::string payload;
    if (req.header.opcode == gb::server::Opcode::kCount) {
      uint64_t c = 0;
      timed("core.count", &count_us, [&] { c = set.CountCovering(covering); });
      timed("protocol.encode", &encode_us,
            [&] { payload = gb::server::EncodeCountResult(c); });
      if (c != oracle.count[poly]) ++wrong;
    } else {
      QueryResult r;
      timed("core.fold", &fold_us,
            [&] { r = set.SelectCovering(covering, req.aggregates); });
      timed("protocol.encode", &encode_us, [&] {
        payload = gb::server::EncodeSelectResult(
            gb::server::SelectResult{r.count, r.values});
      });
      // The server folds through ExecuteBatch, whose per-shard partials
      // may round differently from SelectCovering's single fold, so only
      // the count is compared here; served answers are checked bit for bit.
      if (r.count != oracle.select[poly].count) ++wrong;
    }
    const Span root{"replay.request", root_start, NowNs(), j, -1};
    if (shape.cache && !reqs[j].count) {
      // Not on today's served path: what the cached fold costs for the
      // same request, kept out of the wait computation.
      const uint64_t a = NowNs();
      (void)set.SelectCoveringCached(covering, req.aggregates);
      const uint64_t b = NowNs();
      cache_us.push_back(static_cast<double>(b - a) / 1e3);
      spans->Add(Span{"cache.fold", a, b, j, -1});
    }
    const long root_id = spans->Add(root);
    for (Span c : children) {
      c.parent = root_id;
      spans->Add(c);
    }
    // The served wait: the round trip's self time once this request's
    // replayed layer spans are laid back to back inside it.
    const Span& rtt = *rtt_of[j];
    std::vector<Span> rebased;
    uint64_t at = rtt.start_ns;
    for (const Span& c : children) {
      rebased.push_back(Span{c.name, at, at + (c.end_ns - c.start_ns), j, 0});
      at += c.end_ns - c.start_ns;
    }
    wait_us.push_back(static_cast<double>(SelfTimeNs(rtt, rebased)) / 1e3);
    spans->Add(rtt);
    ++replayed;
  }
  if (wrong > 0) {
    report->Violation(std::to_string(wrong) +
                      " replayed counts differ from the oracle");
  }
  const double n = static_cast<double>(std::max<size_t>(1, replayed));
  report->Metric("server.wait_us", Median(wait_us), "us");
  report->Metric("protocol.decode_us", Median(decode_us), "us");
  report->Metric("protocol.encode_us", Median(encode_us), "us");
  report->Metric("cell.cover_us", Median(cover_us), "us");
  report->Metric("cell.cover_cells", cells / n, "count");
  report->Metric("core.fold_us", Median(fold_us), "us");
  report->Metric("core.count_us", Median(count_us), "us");
  report->Metric("core.shards_per_query", shards / n, "count");
  if (shape.cache) report->Metric("cache.fold_us", Median(cache_us), "us");
}

void RunServed(const Shape& shape, const Options& options, const Env& env,
               Report* report) {
  gb::util::ThreadPool pool(Nproc());
  Setup setup = SetUp(shape, options, env, &pool);
  Deployment& d = setup.live;
  const uint16_t port = d.server->port();
  const Oracle oracle = TakeOracle(port, env);
  report->Count(2 * env.neighborhoods.size(), 0);

  const double rate = RateLadder()[LadderIndex(shape.nominal_qps)];
  // Warm-up at the nominal rate: connections, page cache, governor state.
  {
    const size_t n = static_cast<size_t>(rate * 0.5);
    const Phase warm = RunOpenLoop(port, env, oracle,
                                   MakeStream(shape, env, n, options.seed, 2),
                                   rate, 0, nullptr);
    CheckPhase("warm-up", warm, report);
  }
  auto steady_check = [&](const char* when) {
    if (d.governor == nullptr) return;
    const uint64_t resident = d.governor->stats().resident_bytes;
    std::printf("governed bytes %s: %llu of budget %llu (%.3f)\n", when,
                static_cast<unsigned long long>(resident),
                static_cast<unsigned long long>(setup.budget),
                static_cast<double>(resident) /
                    static_cast<double>(setup.budget));
    if (resident > setup.budget + setup.budget / 5) {
      report->Violation(std::string("governed bytes exceed 1.2x the budget ") +
                        when);
    }
  };

  if (!options.trace) {
    const size_t n = std::max(kMinPhaseRequests,
                              static_cast<size_t>(rate * 0.5 * options.seconds));
    const Phase nominal = [&] {
      const IdleSpinners idle;
      return RunOpenLoop(port, env, oracle,
                         MakeStream(shape, env, n, options.seed, 3), rate, 0,
                         nullptr);
    }();
    PrintPhase("nominal", nominal);
    CheckPhase("nominal", nominal, report);
    report->Count(nominal.requests, nominal.failed());
    steady_check("after the nominal phase");
    report->Metric("setup_s", setup.setup_s, "s");
    report->Metric("read_p50_ms",
                   RequireWindowed(nominal.latency_ms, 50, kP50Window, "read"),
                   "ms");
    report->Metric("read_p99_ms",
                   RequireWindowed(nominal.latency_ms, 99, 0, "read"),
                   "ms");
    report->Metric("read_capacity_qps",
                   Capacity(shape, options, env, oracle, port, nominal, report),
                   "1/s");
    steady_check("after the ladder");
    UpdateProbe(options, env, d, report);
    report->Metric("rss_peak_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run: the nominal phase untraced, then again with spans and
  // counters recorded; the difference is the tracing overhead.
  const size_t n = std::max(kMinPhaseRequests,
                            static_cast<size_t>(rate * 0.4 * options.seconds));
  // Both under IdleSpinners, as the untraced nominal phase is.
  auto idle = std::make_unique<IdleSpinners>();
  const Phase plain = RunOpenLoop(port, env, oracle,
                                  MakeStream(shape, env, n, options.seed, 3),
                                  rate, 0, nullptr);
  PrintPhase("untraced", plain);
  CheckPhase("untraced", plain, report);
  report->Count(plain.requests, plain.failed());

  Client stats_client = Client::Connect(port);
  const auto stats_before = stats_client.Stats();
  const gb::server::ServerStats server_before = d.server->stats();
  gb::core::MemoryGovernor::Stats mem_before{};
  if (d.governor) mem_before = d.governor->stats();
  gb::core::CacheCounters cache_before{};
  if (shape.cache) cache_before = d.set->MergedCacheCounters();
  Capture capture;
  capture.limit = kReplayRequests;
  const std::vector<Request> traced_reqs =
      MakeStream(shape, env, n, options.seed, 4);
  const Phase traced =
      RunOpenLoop(port, env, oracle, traced_reqs, rate, 0, &capture);
  idle.reset();
  gb::core::CacheCounters cache_after{};
  if (shape.cache) cache_after = d.set->MergedCacheCounters();
  gb::core::MemoryGovernor::Stats mem_after{};
  if (d.governor) mem_after = d.governor->stats();
  const gb::server::ServerStats server_after = d.server->stats();
  const auto stats_after = stats_client.Stats();
  PrintPhase("traced", traced);
  CheckPhase("traced", traced, report);
  report->Count(traced.requests, traced.failed());
  steady_check("after the traced phase");

  SpanWriter spans(options.workdir + "/trace.jsonl");
  const auto delta = StatsDelta(stats_before, stats_after);
  for (const auto& [key, value] : delta) {
    std::printf("stats.%s %llu\n", key.c_str(),
                static_cast<unsigned long long>(value));
    spans.Stat(key, value);
  }

  const double kreq = static_cast<double>(traced.requests) / 1000.0;
  const uint64_t executed =
      (server_after.selects_executed - server_before.selects_executed) +
      (server_after.counts_executed - server_before.counts_executed);
  const uint64_t batches =
      server_after.batches_executed - server_before.batches_executed;
  report->Metric("server.requests_per_batch",
                 batches ? static_cast<double>(executed) /
                               static_cast<double>(batches)
                         : 0.0,
                 "count");
  report->Metric("server.queue_rejected",
                 static_cast<double>(server_after.queue_rejected -
                                     server_before.queue_rejected),
                 "count");
  std::vector<double> rtt_us;
  for (const Span& s : capture.rtt) {
    rtt_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  report->Metric("client.rtt_us", Median(rtt_us), "us");
  if (const auto lag = Percentile(traced.send_lag_ms, 99)) {
    report->Metric("load.send_lag_p99_us", *lag * 1e3, "us");
  }
  report->Metric("load.achieved_over_offered", traced.achieved / traced.offered,
                 "ratio");
  report->Metric("trace.overhead_ratio",
                 Median(traced.latency_ms) / Median(plain.latency_ms), "ratio");
  if (shape.cache) {
    const uint64_t probes = cache_after.probes - cache_before.probes;
    const uint64_t hits = cache_after.full_hits - cache_before.full_hits;
    report->Metric("cache.hit_rate",
                   probes ? static_cast<double>(hits) / static_cast<double>(probes)
                          : 0.0,
                   "ratio");
    report->Metric("cache.probes_per_query",
                   static_cast<double>(probes) /
                       static_cast<double>(traced.requests),
                   "count");
  }
  if (d.governor) {
    report->Metric("mem.faults_per_kreq",
                   static_cast<double>(mem_after.faults - mem_before.faults) / kreq,
                   "count");
    report->Metric(
        "mem.evictions_per_kreq",
        static_cast<double>(mem_after.evictions - mem_before.evictions) / kreq,
        "count");
    report->Metric("mem.refusals",
                   static_cast<double>(mem_after.refusals - mem_before.refusals),
                   "count");
    report->Metric("mem.resident_over_budget",
                   static_cast<double>(mem_after.resident_bytes) /
                       static_cast<double>(setup.budget),
                   "ratio");
    report->Metric("mem.open_s", setup.open_s, "s");
  }
  if (setup.build_s > 0) report->Metric("core.build_s", setup.build_s, "s");

  ReplayServed(shape, *d.set, oracle, traced_reqs, capture, &spans, report);

  if (d.governor) {
    // A fault replayed in isolation: evict everything evictable, then time
    // EnsureResident on each shard that went cold.
    std::vector<double> fault_us;
    for (int round = 0; round < 2; ++round) {
      for (size_t s = 0; s < d.set->num_shards(); ++s) {
        d.governor->set_budget_bytes(1);
        d.governor->EnsureBudget();
        if (d.set->shard_resident(s)) continue;
        const uint64_t a = NowNs();
        d.set->EnsureResident(s);
        const uint64_t b = NowNs();
        fault_us.push_back(static_cast<double>(b - a) / 1e3);
        spans.Add(Span{"mem.fault", a, b, s, -1});
      }
    }
    d.governor->set_budget_bytes(setup.budget);
    d.governor->EnsureBudget();
    report->Metric("mem.fault_us", Median(fault_us), "us");
  }
  spans.Write();
}

}  // namespace

void RunReadSkewed(const Options& options, const Env& env, Report* report) {
  RunServed(kReadSkewed, options, env, report);
}

void RunReadBudget(const Options& options, const Env& env, Report* report) {
  RunServed(kReadBudget, options, env, report);
}

}  // namespace perfbench
