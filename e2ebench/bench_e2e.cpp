// bench_e2e — the end-to-end benchmark.
//
// Real traffic goes through sim::NetFlowSimulator (4 router threads) into a
// WAL-backed store::LogStore, is proven by core::ProviderPipeline (zvm
// prover, sharded split/join fold, epoch ladder) and accepted by
// core::Auditor / core::ShardedAuditor; client queries go through
// core::QueryService and are verified. Each layer is measured from outside,
// at the public call into it: timers around the call, the ProveInfo /
// RoundResult / VerifyStats / LogStore::stats() values it returns, and
// deltas of the process-wide obs::Registry snapshot.
//
//   bench_e2e [--workload steady_delta|churn_sharded|query_mix|all]
//             [--seed N] [--seconds S] [--out DIR] [--trace PATH]
//             [--work-dir DIR] [--smoke]
//
// One generator — this thread — drives each workload in a closed loop. The
// measured phase runs for --seconds and always ends on a whole unit of work
// (a window, a chain of bursts, a deck of queries), so the mix of work
// behind every percentile is the same however fast the machine is. The
// program exits nonzero when any output is wrong. README.md documents the
// workloads and every metric.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/auditor.h"
#include "core/epoch.h"
#include "core/io.h"
#include "core/pipeline.h"
#include "core/service.h"
#include "core/sharded.h"
#include "crypto/sha256_backend.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "store/logstore.h"

#ifndef ZKT_BUILD_TYPE
#define ZKT_BUILD_TYPE "unknown"
#endif

using namespace zkt;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;
using netflow::PacketObservation;

constexpr u64 kWindowMs = 5'000;
constexpr u32 kRouters = 4;
constexpr u32 kShards = 4;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ms_since(Clock::time_point start) {
  return ms_between(start, Clock::now());
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Independent stream seeds from the one --seed.
u64 derive_seed(u64 seed, u64 stream) {
  SplitMix64 sm(seed * 0x9E3779B97F4A7C15ULL ^
                (stream + 1) * 0xD1B54A32D192ED03ULL);
  return sm.next();
}

// ---------------------------------------------------------------------------
// Tracing: one span per public layer call made from this file, kept in a
// preallocated buffer and written as Chrome trace-event JSON at exit. All
// spans are opened on this thread, so nesting is a stack.

class Tracer {
 public:
  struct Span {
    const char* name = "";
    u64 id = 0;
    i64 parent = -1;
    i64 start_ns = 0;
    i64 end_ns = 0;
  };

  void enable(size_t capacity) {
    enabled_ = true;
    spans_.reserve(capacity);
  }

  /// Open a span under the innermost open one. Returns its index, or -1
  /// when tracing is off or the buffer is full.
  i64 begin(const char* name, u64 id) {
    if (!enabled_) return -1;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, id, open_, now_ns(), 0});
    open_ = static_cast<i64>(spans_.size()) - 1;
    return open_;
  }
  void end(i64 index) {
    if (index < 0) return;
    spans_[index].end_ns = now_ns();
    open_ = spans_[index].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }
  u64 dropped() const { return dropped_; }

  /// Per span: its duration minus the part of it its child spans cover.
  std::vector<double> self_ms() const {
    std::vector<std::vector<std::pair<i64, i64>>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
    }
    std::vector<double> out(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      i64 covered = 0;
      i64 reach = spans_[i].start_ns;
      for (auto [b, e] : kids) {
        b = std::max(b, reach);
        if (e > b) {
          covered += e - b;
          reach = e;
        }
      }
      out[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                   covered) / 1e6;
    }
    return out;
  }

  bool write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\":\"%s\",\"cat\":\"zkt\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%llu}}",
                    i == 0 ? "" : ",", s.name,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.id));
      out << line;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  static i64 now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  bool enabled_ = false;
  std::vector<Span> spans_;
  i64 open_ = -1;
  u64 dropped_ = 0;
};

Tracer g_tracer;

class SpanScope {
 public:
  SpanScope(const char* name, u64 id) : index_(g_tracer.begin(name, id)) {}
  ~SpanScope() { g_tracer.end(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  i64 index_;
};

/// Run `fn` under a span, storing its wall time in `ms`.
template <typename F>
auto timed(const char* span, u64 id, double& ms, F&& fn) {
  SpanScope scope(span, id);
  const auto start = Clock::now();
  auto result = fn();
  ms = ms_since(start);
  return result;
}

/// Cost of recording one span, measured on a scratch tracer.
double span_cost_ns() {
  Tracer probe;
  constexpr int kProbe = 20'000;
  probe.enable(kProbe);
  const auto start = Clock::now();
  for (int i = 0; i < kProbe; ++i) probe.end(probe.begin("probe", i));
  return ms_since(start) * 1e6 / kProbe;
}

// ---------------------------------------------------------------------------
// Report: every metric by name with its unit, plus the op accounting.

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  std::string workload;
  std::map<std::string, Metric> metrics;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// A wrong answer (the run is not correct).
  void wrong(const std::string& what) {
    if (errors.size() < 16) errors.push_back(what);
  }
  /// An operation that returned an error: counted and reported.
  void op_failed(const std::string& what) {
    ++failed;
    wrong(what);
  }
  bool correct() const { return errors.empty() && failed == 0; }
};

/// Deltas of the obs registry across a measured phase.
struct RegistryDelta {
  obs::Snapshot before = obs::Registry::instance().snapshot();
  obs::Snapshot after;

  void close() { after = obs::Registry::instance().snapshot(); }

  double counter(std::string_view name) const {
    const u64* a = after.find_counter(name);
    const u64* b = before.find_counter(name);
    return static_cast<double>((a ? *a : 0) - (b ? *b : 0));
  }
  double hist_count(std::string_view name) const {
    const auto* a = after.find_histogram(name);
    const auto* b = before.find_histogram(name);
    return static_cast<double>((a ? a->count : 0) - (b ? b->count : 0));
  }
  double hist_sum(std::string_view name) const {
    const auto* a = after.find_histogram(name);
    const auto* b = before.find_histogram(name);
    return (a ? a->sum : 0) - (b ? b->sum : 0);
  }
  double hist_mean(std::string_view name) const {
    return ratio(hist_sum(name), hist_count(name));
  }
};

u64 sha256_blocks() {
  u64 blocks = 0;
  for (size_t b = 0; b < crypto::kSha256BackendCount; ++b) {
    const auto backend = static_cast<crypto::Sha256Backend>(b);
    blocks += crypto::sha256_backend_stats(backend).blocks;
  }
  return blocks;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Process-level and cross-layer counters over a measured phase: proving
/// work (every proof, including splits, joins and epoch seals), hashing,
/// pool tasks and CPU time.
struct PhaseCounters {
  RegistryDelta registry;
  u64 sha_blocks = sha256_blocks();
  u64 pool_tasks = common::ThreadPool::shared().tasks_executed();
  double cpu_s = cpu_seconds();
  Clock::time_point start = Clock::now();
  double wall_s = 0;

  void close() {
    registry.close();
    sha_blocks = sha256_blocks() - sha_blocks;
    pool_tasks = common::ThreadPool::shared().tasks_executed() - pool_tasks;
    cpu_s = cpu_seconds() - cpu_s;
    wall_s = ms_since(start) / 1e3;
  }

  /// The per-op cost metrics every workload reports.
  void report(Report& r, double ops) const {
    const double cycles = registry.counter("zvm.prover.cycles");
    const double sha_rows = registry.counter("zvm.prover.sha_rows");
    // ProveInfo::weighted_cycles() summed over every proof of the phase.
    r.set("weighted_cycles_per_op",
          ratio(sha_rows * 68 + (cycles - sha_rows), ops), "cycles");
    r.set("zvm.cycles_per_op", ratio(cycles, ops), "cycles");
    r.set("zvm.sha_rows_per_op", ratio(sha_rows, ops), "rows");
    r.set("zvm.segments_per_op",
          ratio(registry.counter("zvm.prover.segments"), ops), "count");
    r.set("zvm.proofs_per_op",
          ratio(registry.counter("zvm.prover.proofs"), ops), "count");
    r.set("zvm.execute_ms_mean", registry.hist_mean("zvm.prover.execute_ms"),
          "ms");
    r.set("zvm.commit_ms_mean", registry.hist_mean("zvm.prover.commit_ms"),
          "ms");
    r.set("crypto.sha256_blocks_per_op",
          ratio(static_cast<double>(sha_blocks), ops), "blocks");
    r.set("pool.tasks_per_op", ratio(static_cast<double>(pool_tasks), ops),
          "count");
    r.set("process.cpu_util", ratio(cpu_s, wall_s), "cpu/wall");
  }
};

// ---------------------------------------------------------------------------
// Traffic. The program under test sees only these generated packets.

/// One packet of flow `flow` of the population keyed by `pop_seed`. Hops
/// and base RTT are stable per flow; the rest varies per packet.
PacketObservation make_packet(u64 flow, u64 pop_seed, u64 timestamp_ms,
                              Xoshiro256& rng) {
  SplitMix64 traits_rng(pop_seed ^ (flow * 0x632BE59BD9B4E019ULL));
  const u64 traits = traits_rng.next();
  PacketObservation pkt;
  pkt.key = sim::synth_flow_key(flow, pop_seed);
  pkt.timestamp_ms = timestamp_ms;
  pkt.bytes = static_cast<u32>(64 + rng.uniform(1'437));
  pkt.tcp_flags = pkt.key.protocol == 6 ? 0x18 : 0;
  pkt.hop_count = static_cast<u8>(2 + traits % 11);
  pkt.rtt_us = static_cast<u32>(10'000 + (traits >> 8) % 30'000 +
                                rng.uniform(4'000));
  pkt.jitter_us = static_cast<u32>(rng.uniform(3'000));
  pkt.dropped = rng.uniform(200) == 0;
  return pkt;
}

/// Packets for `flows`, with arrival times drawn uniformly inside window
/// `window`. None may spill into the next window: the routers would commit
/// that window twice, and the board rejects the second commitment as
/// equivocation.
std::vector<PacketObservation> window_packets(const std::vector<u64>& flows,
                                              u64 pop_seed, u64 window,
                                              Xoshiro256& rng) {
  std::vector<u64> times(flows.size());
  for (u64& t : times) t = window * kWindowMs + rng.uniform(kWindowMs);
  std::sort(times.begin(), times.end());
  std::vector<PacketObservation> packets;
  packets.reserve(flows.size());
  for (size_t i = 0; i < flows.size(); ++i) {
    packets.push_back(make_packet(flows[i], pop_seed, times[i], rng));
  }
  return packets;
}

/// Long-lived flows: a fixed Zipf(1.1) population, a genesis window with one
/// packet per flow, then windows of Zipf draws over the same flows.
class SteadyTraffic {
 public:
  SteadyTraffic(u64 seed, u64 population)
      : pop_seed_(derive_seed(seed, 1)),
        population_(population),
        zipf_(population, 1.1, derive_seed(seed, 2)),
        rng_(derive_seed(seed, 3)) {}

  std::vector<PacketObservation> genesis(u64 window) {
    std::vector<u64> flows(population_);
    for (u64 f = 0; f < population_; ++f) flows[f] = f;
    return window_packets(flows, pop_seed_, window, rng_);
  }

  std::vector<PacketObservation> window(u64 window, u64 packets) {
    std::vector<u64> flows(packets);
    for (u64& f : flows) f = zipf_.sample() - 1;
    return window_packets(flows, pop_seed_, window, rng_);
  }

 private:
  u64 pop_seed_;
  u64 population_;
  ZipfSampler zipf_;
  Xoshiro256 rng_;
};

/// Insert-heavy traffic: window j draws from its own fresh Zipf(0.6)
/// population, so every key is new. A window's packets depend only on
/// (seed, j), so every chain replays identical traffic.
std::vector<PacketObservation> churn_window(u64 seed, u64 j, u64 flows,
                                            u64 packets,
                                            std::set<netflow::FlowKey>& keys) {
  const u64 pop_seed = derive_seed(seed, 4);
  ZipfSampler zipf(flows, 0.6, derive_seed(seed, 100 + j));
  Xoshiro256 rng(derive_seed(seed, 1'000'000 + j));
  std::vector<u64> drawn(packets);
  for (u64& f : drawn) {
    f = j * flows + zipf.sample() - 1;
    keys.insert(sim::synth_flow_key(f, pop_seed));
  }
  return window_packets(drawn, pop_seed, j, rng);
}

// ---------------------------------------------------------------------------
// One provider deployment: routers committing into a WAL-backed store in a
// directory of its own, and the pipeline proving from it.

struct ScratchDir {
  explicit ScratchDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  fs::path path;
};

sim::SimConfig sim_config(u64 seed) {
  sim::SimConfig config;
  config.router_count = kRouters;
  config.window_ms = kWindowMs;
  config.path_length = 2;
  config.key_seed = seed;
  return config;
}

struct Chain {
  Chain(const fs::path& path, const core::PipelineOptions& options, u64 seed)
      : dir(path),
        store(store::StoreConfig{.wal_path = (path / "rlogs.wal").string()}),
        sim(sim_config(seed), store, board),
        pipeline(store, board, options) {}

  u64 records_committed() const {
    u64 records = 0;
    for (const auto& s : sim.router_stats()) records += s.records;
    return records;
  }

  // Declared first so the directory outlives the store's open WAL.
  ScratchDir dir;
  store::LogStore store;
  core::CommitmentBoard board;
  sim::NetFlowSimulator sim;
  core::ProviderPipeline pipeline;
};

Result<std::unique_ptr<Chain>> make_chain(const fs::path& path,
                                          const core::PipelineOptions& options,
                                          u64 seed) {
  auto chain = std::make_unique<Chain>(path, options, seed);
  if (Status recovered = chain->store.recover(); !recovered.ok()) {
    return recovered.error();
  }
  return chain;
}

/// The routers meter and commit one window; when this returns, the window's
/// last commitment is published.
Status commit_window(Chain& chain, std::vector<PacketObservation> packets,
                     u64 window, double& ms) {
  return timed("sim.run", window, ms,
               [&] { return chain.sim.run(std::move(packets)); });
}

Result<std::vector<core::RoundResult>> aggregate(Chain& chain, u64 id,
                                                 double& ms) {
  return timed("aggregate_pending", id, ms,
               [&] { return chain.pipeline.aggregate_pending(); });
}

/// Retention, as an operator runs it between rounds: drop the chain
/// snapshots the one of `window` supersedes and compact the WAL into the
/// store's snapshot file. Every round persists a full-CLog snapshot, so
/// without this a long run holds gigabytes in memory and on disk.
Status compact_store(Chain& chain, u64 window) {
  chain.store.drop_rows(store::kTableChainState, window - 1);
  return chain.store.checkpoint();
}

template <typename R>
std::string why(const R& result) {
  return result.ok() ? std::string("unexpected shape")
                     : result.error().to_string();
}

// ---------------------------------------------------------------------------
// Workloads.

struct Shape {
  u64 population;           ///< steady_delta / query_mix flows
  u64 steady_packets;       ///< packets per steady window
  u64 epoch_every;          ///< steady_delta ladder epoch
  u64 min_steady_rounds;    ///< steady_delta rounds even past --seconds
  u64 compact_every;        ///< steady_delta rounds between compactions
  u64 query_windows;        ///< steady windows behind query_mix's state
  u64 churn_flows;          ///< fresh flows per churn window
  u64 churn_packets;        ///< packets per churn window
  u64 churn_burst;          ///< windows drained per aggregate_pending
  u64 churn_chain_windows;  ///< windows per churn chain
  u32 setup_reps;           ///< set-ups per run (setup_s is their median)
  double verify_seconds;    ///< steady_delta verifier phase
};

constexpr Shape kFullShape{.population = 50'000,
                           .steady_packets = 1'000,
                           .epoch_every = 16,
                           .min_steady_rounds = 32,
                           .compact_every = 16,
                           .query_windows = 16,
                           .churn_flows = 1'000,
                           .churn_packets = 1'500,
                           .churn_burst = 4,
                           .churn_chain_windows = 32,
                           .setup_reps = 3,
                           .verify_seconds = 1.0};
// Every check and every metric, in well under a second per workload.
constexpr Shape kSmokeShape{.population = 2'000,
                            .steady_packets = 200,
                            .epoch_every = 4,
                            .min_steady_rounds = 8,
                            .compact_every = 4,
                            .query_windows = 4,
                            .churn_flows = 100,
                            .churn_packets = 150,
                            .churn_burst = 4,
                            .churn_chain_windows = 8,
                            .setup_reps = 1,
                            .verify_seconds = 0.05};

struct RunConfig {
  std::string workload;
  u64 seed = 1;
  double seconds = 20;
  Shape shape = kFullShape;
  fs::path work_dir;
};

/// Plain-chain counters read off a round's journals (every shard round of
/// a sharded round).
struct AggCounts {
  double rounds = 0;
  double incremental = 0;
  double touched = 0;
  double siblings = 0;

  void add(const core::RoundResult& round) {
    for (const core::AggregationRound& shard : round.shard_rounds) {
      ++rounds;
      if (shard.journal.kind == core::RoundKind::incremental) ++incremental;
      touched += static_cast<double>(shard.journal.update_count);
      siblings += static_cast<double>(shard.journal.multiproof_siblings);
    }
  }
  void report(Report& r) const {
    r.set("agg.incremental_ratio", ratio(incremental, rounds), "ratio");
    r.set("agg.touched_entries_mean", ratio(touched, rounds), "entries");
    r.set("agg.multiproof_siblings_mean", ratio(siblings, rounds), "digests");
  }
};

/// The latency metrics every workload reports over its unit of work.
void report_ops(Report& r, const std::vector<double>& op_ms, double busy_ms) {
  r.set("op_ms_p25", quantile(op_ms, 0.25), "ms");
  r.set("op_ms_p50", quantile(op_ms, 0.50), "ms");
  r.set("op_ms_p90", quantile(op_ms, 0.90), "ms");
  r.set("ops_per_s", ratio(static_cast<double>(op_ms.size()), busy_ms / 1e3),
        "1/s");
  r.set("ops", static_cast<double>(op_ms.size()), "count");
}

void report_pipeline(Report& r, const RegistryDelta& reg) {
  r.set("pipeline.stage_ms_mean", reg.hist_mean("core.pipeline.stage_ms"),
        "ms");
  r.set("pipeline.prove_ms_mean", reg.hist_mean("core.pipeline.prove_ms"),
        "ms");
  r.set("pipeline.fold_wait_ms_mean",
        reg.hist_mean("core.pipeline.fold_wait_ms"), "ms");
  r.set("sharded.split_ms_mean", reg.hist_mean("core.sharded.split_ms"), "ms");
  r.set("tree.fold_ms_mean", reg.hist_mean("core.tree.fold_ms"), "ms");
}

/// A plain chain holding the steady population: the genesis window (one
/// packet per flow) plus `windows` steady windows, one round each.
Result<std::unique_ptr<Chain>> steady_chain(const RunConfig& cfg,
                                            SteadyTraffic& traffic,
                                            u64 epoch_every, u64 windows,
                                            Report& r) {
  core::PipelineOptions options;
  options.epoch_every = epoch_every;
  auto made = make_chain(cfg.work_dir / cfg.workload, options, cfg.seed);
  if (!made.ok()) return made.error();
  Chain& chain = *made.value();
  for (u64 w = 0; w <= windows; ++w) {
    auto packets = w == 0 ? traffic.genesis(w)
                          : traffic.window(w, cfg.shape.steady_packets);
    ++r.attempted;
    double ms = 0;
    ZKT_TRY(commit_window(chain, std::move(packets), w, ms));
    auto rounds = aggregate(chain, w, ms);
    if (!rounds.ok()) return rounds.error();
    if (rounds.value().size() != 1) {
      return Error{Errc::chain_broken, "expected one round per window"};
    }
  }
  return std::move(made.value());
}

void run_steady_delta(const RunConfig& cfg, Report& r) {
  const Shape& shape = cfg.shape;
  std::unique_ptr<Chain> chain;
  std::optional<SteadyTraffic> traffic;
  std::vector<double> setup_s;
  for (u32 rep = 0; rep < shape.setup_reps; ++rep) {
    SpanScope setup_span("setup", rep);
    chain.reset();  // one resident deployment at a time
    traffic.emplace(cfg.seed, shape.population);
    const auto start = Clock::now();
    auto made = steady_chain(cfg, *traffic, shape.epoch_every, 0, r);
    if (!made.ok()) {
      r.op_failed("genesis: " + made.error().to_string());
      return;
    }
    chain = std::move(made.value());
    setup_s.push_back(ms_since(start) / 1e3);
  }
  r.set("setup_s", quantile(setup_s, 0.5), "s");

  const store::LogStore::Stats store_before = chain->store.stats();
  const u64 records_before = chain->records_committed();
  PhaseCounters phase;
  std::vector<double> round_ms, sim_ms;
  double busy_ms = 0, proof_bytes = 0;
  AggCounts agg;
  const auto measure_start = Clock::now();
  for (u64 w = 1; round_ms.size() < shape.min_steady_rounds ||
                  ms_since(measure_start) < cfg.seconds * 1e3;
       ++w) {
    SpanScope window_span("window", w);
    auto packets = traffic->window(w, shape.steady_packets);
    ++r.attempted;
    double commit_ms = 0, aggregate_ms = 0;
    Status committed = commit_window(*chain, std::move(packets), w, commit_ms);
    if (!committed.ok()) {
      r.op_failed("sim.run: " + committed.to_string());
      break;
    }
    auto rounds = aggregate(*chain, w, aggregate_ms);
    if (!rounds.ok() || rounds.value().size() != 1) {
      r.op_failed("aggregate_pending: " + why(rounds));
      break;
    }
    sim_ms.push_back(commit_ms);
    round_ms.push_back(aggregate_ms);
    busy_ms += commit_ms + aggregate_ms;
    proof_bytes += static_cast<double>(
        rounds.value().front().primary().receipt.to_bytes().size());
    agg.add(rounds.value().front());
    if (w % shape.compact_every == 0) {
      if (Status compacted = compact_store(*chain, w); !compacted.ok()) {
        r.op_failed("store compaction: " + compacted.to_string());
        break;
      }
    }
  }
  const double rounds = static_cast<double>(round_ms.size());
  const double records =
      static_cast<double>(chain->records_committed() - records_before);

  double settle_ms = 0;
  auto seals = timed("epoch_seals", 0, settle_ms,
                     [&] { return chain->pipeline.epoch_seals(); });
  phase.close();
  if (!seals.ok()) {
    r.op_failed("epoch_seals: " + seals.error().to_string());
    return;
  }

  report_ops(r, round_ms, busy_ms);
  r.set("proof_bytes_per_op", ratio(proof_bytes, rounds), "B");
  phase.report(r, rounds);
  r.set("records_per_s", ratio(records, busy_ms / 1e3), "records/s");
  r.set("sim.commit_ms_p50", quantile(sim_ms, 0.5), "ms");
  r.set("sim.records_per_round", ratio(records, rounds), "records");
  const store::LogStore::Stats store_after = chain->store.stats();
  r.set("store.wal_bytes_per_round",
        ratio(static_cast<double>(store_after.wal_bytes - store_before.wal_bytes),
              rounds),
        "B");
  r.set("store.appends_per_round",
        ratio(static_cast<double>(store_after.appends - store_before.appends),
              rounds),
        "count");
  r.set("pipeline.aggregate_ms_p50", quantile(round_ms, 0.5), "ms");
  report_pipeline(r, phase.registry);
  agg.report(r);
  r.set("epoch.settle_ms", settle_ms, "ms");
  r.set("epoch.seals", static_cast<double>(seals.value().size()), "count");

  // Verifier phase: a cold streaming audit of the receipts the store
  // persisted, and a cold catch-up over the epoch ladder plus the unsealed
  // suffix. Both must land on the prover's own head.
  std::vector<zvm::Receipt> persisted;
  for (const auto& row : chain->store.scan(store::kTableReceipts, 0, ~0ULL)) {
    auto receipt = zvm::Receipt::from_bytes(row.payload);
    if (!receipt.ok()) {
      r.wrong("persisted receipt unreadable: " + receipt.error().to_string());
      return;
    }
    persisted.push_back(std::move(receipt.value()));
  }
  const core::AggregationService& host = chain->pipeline.aggregation();
  auto host_claim = host.last_claim_digest();
  if (!host_claim.ok() || persisted.size() != host.rounds_completed()) {
    r.wrong("store holds " + std::to_string(persisted.size()) +
            " receipts for " + std::to_string(host.rounds_completed()) +
            " rounds");
    return;
  }
  const core::ChainHead expected{persisted.size(), host_claim.value(),
                                 host.state().root(),
                                 host.state().entry_count()};
  auto same_head = [&](const core::ChainHead& h) {
    return h.rounds == expected.rounds &&
           h.claim_digest == expected.claim_digest &&
           h.root == expected.root && h.entry_count == expected.entry_count;
  };
  u64 sealed = 0;
  for (const core::EpochSeal& seal : seals.value()) sealed += seal.rounds;
  const std::span<const zvm::Receipt> suffix =
      std::span<const zvm::Receipt>(persisted).subspan(sealed);

  std::vector<double> audit_ms, catchup_ms;
  const auto verify_start = Clock::now();
  for (u64 pass = 0;
       pass < 3 || ms_since(verify_start) < shape.verify_seconds * 1e3;
       ++pass) {
    core::Auditor cold(chain->board);
    core::ReceiptSpanSource source(persisted);
    ++r.attempted;
    auto audited = timed("auditor.audit", pass, audit_ms.emplace_back(),
                         [&] { return cold.audit(source); });
    if (!audited.ok()) {
      r.op_failed("audit: " + audited.error().to_string());
      break;
    }
    core::Auditor fresh(chain->board);
    ++r.attempted;
    auto caught = timed("auditor.catch_up", pass, catchup_ms.emplace_back(),
                        [&] { return fresh.catch_up(seals.value(), suffix); });
    if (!caught.ok()) {
      r.op_failed("catch_up: " + caught.error().to_string());
      break;
    }
    if (!same_head(audited.value().head)) r.wrong("audit head != host head");
    if (!same_head(caught.value().head)) r.wrong("catch-up head != host head");
  }
  r.set("auditor.audit_ms_p50", quantile(audit_ms, 0.5), "ms");
  r.set("auditor.catchup_ms_p50", quantile(catchup_ms, 0.5), "ms");
}

core::PipelineOptions sharded_options() {
  core::PipelineOptions options;
  options.sharded.shard_count = kShards;
  options.sharded.join_fanout = 2;
  options.sharded.pipeline_depth = 2;
  return options;
}

struct ChurnSamples {
  std::vector<double> round_ms, sim_ms, agg_ms, accept_ms, imbalance;
  double busy_ms = 0;
  double records = 0;
  double proof_bytes = 0;
  AggCounts agg;
};

/// One churn chain on a fresh deployment: bursts of `churn_burst` windows,
/// each drained by one aggregate_pending (a prover that wakes every burst),
/// every round accepted by a ShardedAuditor through its tree seal. False
/// when an operation failed (the chain halts there).
bool run_churn_chain(const RunConfig& cfg, u64 windows, u64 chain_no,
                     ChurnSamples& out, Report& r) {
  const Shape& shape = cfg.shape;
  auto made = make_chain(cfg.work_dir / cfg.workload, sharded_options(),
                         cfg.seed);
  if (!made.ok()) {
    r.op_failed("store: " + made.error().to_string());
    return false;
  }
  Chain& chain = *made.value();
  core::ShardedAuditor auditor(chain.board, kShards);
  std::set<netflow::FlowKey> keys;
  for (u64 first = 0; first < windows; first += shape.churn_burst) {
    const u64 burst_id = chain_no * 1'000 + first / shape.churn_burst;
    SpanScope burst_span("burst", burst_id);
    const u64 records_before = chain.records_committed();
    std::vector<Clock::time_point> published;
    double busy_ms = 0;
    for (u64 j = first; j < std::min(first + shape.churn_burst, windows); ++j) {
      auto packets = churn_window(cfg.seed, j, shape.churn_flows,
                                  shape.churn_packets, keys);
      ++r.attempted;
      Status committed = commit_window(chain, std::move(packets), j,
                                       out.sim_ms.emplace_back());
      published.push_back(Clock::now());
      if (!committed.ok()) {
        r.op_failed("sim.run: " + committed.to_string());
        return false;
      }
      busy_ms += out.sim_ms.back();
    }
    auto rounds = aggregate(chain, burst_id, out.agg_ms.emplace_back());
    const auto drained = Clock::now();
    if (!rounds.ok() || rounds.value().size() != published.size()) {
      r.op_failed("aggregate_pending: " + why(rounds));
      return false;
    }
    busy_ms += out.agg_ms.back();
    for (const auto& t : published) {
      out.round_ms.push_back(ms_between(t, drained));
    }
    out.busy_ms += busy_ms;
    out.records += static_cast<double>(chain.records_committed() -
                                       records_before);
    out.imbalance.push_back(
        obs::Registry::instance().gauge("core.sharded.imbalance").value());
    for (const core::RoundResult& round : rounds.value()) {
      out.agg.add(round);
      if (!round.tree_seal.has_value()) {
        r.wrong("round " + std::to_string(round.round_id) + " has no seal");
        return false;
      }
      double bytes = static_cast<double>(round.tree_seal->to_bytes().size());
      for (const zvm::Receipt& split : round.split_receipts) {
        bytes += static_cast<double>(split.to_bytes().size());
      }
      out.proof_bytes += bytes;
      ++r.attempted;
      Status accepted =
          timed("auditor.accept_round", burst_id, out.accept_ms.emplace_back(),
                [&] { return auditor.accept_round(round); });
      if (!accepted.ok()) {
        r.op_failed("tree seal rejected: " + accepted.to_string());
        return false;
      }
    }
  }
  if (auditor.total_entries() != keys.size() ||
      chain.pipeline.sharded_service()->total_entries() != keys.size()) {
    r.wrong("entries " + std::to_string(auditor.total_entries()) +
            " != distinct keys " + std::to_string(keys.size()));
  }
  return true;
}

void run_churn_sharded(const RunConfig& cfg, Report& r) {
  const Shape& shape = cfg.shape;
  // Set-up: bring up a fresh sharded deployment and prove its first burst
  // (guest images registered, pool and allocator warm).
  std::vector<double> setup_s;
  for (u32 rep = 0; rep < shape.setup_reps; ++rep) {
    SpanScope setup_span("setup", rep);
    ChurnSamples discard;
    const auto start = Clock::now();
    if (!run_churn_chain(cfg, shape.churn_burst, 0, discard, r)) return;
    setup_s.push_back(ms_since(start) / 1e3);
  }
  r.set("setup_s", quantile(setup_s, 0.5), "s");

  // Measured: whole chains of identical traffic, each from an empty CLog,
  // so every run proves the same sequence of CLog sizes.
  PhaseCounters phase;
  ChurnSamples s;
  const auto measure_start = Clock::now();
  u64 chain_no = 1;
  do {
    if (!run_churn_chain(cfg, shape.churn_chain_windows, chain_no++, s, r)) {
      break;
    }
  } while (ms_since(measure_start) < cfg.seconds * 1e3);
  phase.close();

  const double rounds = static_cast<double>(s.round_ms.size());
  report_ops(r, s.round_ms, s.busy_ms);
  r.set("proof_bytes_per_op", ratio(s.proof_bytes, rounds), "B");
  phase.report(r, rounds);
  r.set("records_per_s", ratio(s.records, s.busy_ms / 1e3), "records/s");
  r.set("sim.commit_ms_p50", quantile(s.sim_ms, 0.5), "ms");
  r.set("sim.records_per_round", ratio(s.records, rounds), "records");
  r.set("pipeline.aggregate_ms_p50", quantile(s.agg_ms, 0.5), "ms");
  report_pipeline(r, phase.registry);
  r.set("sharded.imbalance", mean(s.imbalance), "max/mean");
  s.agg.report(r);
  r.set("auditor.accept_ms_p50", quantile(s.accept_ms, 0.5), "ms");
}

enum class QueryKind { point, heavy, card, scan };

/// One deck of the query mix. Fixed proportions, shuffled per deck. The
/// classes sort point < sketch < scan by latency, so op_ms_p25 falls among
/// the point queries, op_ms_p50 among the sketch queries and op_ms_p90 in
/// the middle of the scans: each percentile tracks one cost shape.
constexpr QueryKind kDeck[] = {QueryKind::point, QueryKind::point,
                               QueryKind::point, QueryKind::point,
                               QueryKind::heavy, QueryKind::heavy,
                               QueryKind::card,  QueryKind::card,
                               QueryKind::scan,  QueryKind::scan};

/// A proven, verified and checked query answer.
struct Answer {
  zvm::Receipt receipt;
  u64 cycles = 0;
  double prove_ms = 0;
  double verify_ms = 0;
  bool used_sketch = false;
};

/// What every query needs: the prover and verifier sides, the host state
/// answers are checked against, and the query generator.
struct QueryContext {
  const core::QueryService& queries;
  core::Auditor& auditor;
  const core::CLogState& state;
  u64 heavy_floor;  ///< Space-Saving floor total / capacity
  Xoshiro256& rng;
  Report& r;
};

/// A complete-scan SLA count or a selective point sum: the proven result
/// must equal evaluate_query over the host state.
std::optional<Answer> answer_query(QueryContext& ctx, QueryKind kind, u64 id) {
  core::Query q;
  core::QueryOptions options;
  if (kind == QueryKind::scan) {
    q = core::Query::count().and_where(core::QField::rtt_avg_us,
                                       core::CmpOp::lt,
                                       15'000 + ctx.rng.uniform(25'000));
  } else {
    const netflow::FlowKey& key =
        ctx.state.entry(ctx.rng.uniform(ctx.state.entry_count())).key;
    q = core::Query::sum(core::QField::hop_sum)
            .and_where(core::QField::src_ip, core::CmpOp::eq, key.src_ip)
            .and_where(core::QField::dst_ip, core::CmpOp::eq, key.dst_ip);
    options.mode = core::QueryMode::selective;
  }
  Answer a;
  auto resp = timed("query.prove", id, a.prove_ms,
                    [&] { return ctx.queries.run(q, options); });
  if (!resp.ok()) {
    ctx.r.op_failed("query prove: " + resp.error().to_string());
    return std::nullopt;
  }
  core::VerifyOptions verify;
  verify.expected_query = &q;
  auto journal = timed("query.verify", id, a.verify_ms, [&] {
    return ctx.auditor.verify_query(resp.value().receipt, verify);
  });
  if (!journal.ok()) {
    ctx.r.op_failed("query verify: " + journal.error().to_string());
    return std::nullopt;
  }
  const core::QueryResult truth =
      core::evaluate_query(q, ctx.state.entries());
  const core::QueryResult& proven = journal.value().result;
  // A selective proof only opens the matching entries, so only the
  // aggregate over them is comparable.
  const bool same = kind == QueryKind::scan
                        ? proven == truth
                        : proven.matched == truth.matched &&
                              proven.sum == truth.sum;
  if (!same) ctx.r.wrong(q.to_string() + ": proven result != host state");
  a.cycles = resp.value().prove_info.cycles;
  a.receipt = std::move(resp.value().receipt);
  return a;
}

/// heavy_hitters(T) with T above the Space-Saving floor. Sketch answers:
/// every hit inside its proven bracket against the exact count, and every
/// flow at or above T reported. Exact answers: equal to the host state.
std::optional<Answer> answer_heavy(QueryContext& ctx, u64 id) {
  const u64 threshold =
      ctx.heavy_floor + 1 + ctx.rng.uniform(ctx.heavy_floor + 1);
  Answer a;
  auto resp = timed("query.prove", id, a.prove_ms,
                    [&] { return ctx.queries.heavy_hitters(threshold); });
  if (!resp.ok()) {
    ctx.r.op_failed("heavy_hitters: " + resp.error().to_string());
    return std::nullopt;
  }
  core::HeavyHittersResponse& hh = resp.value();
  a.used_sketch = hh.used_sketch;
  if (!hh.used_sketch) {
    auto journal = timed("query.verify", id, a.verify_ms, [&] {
      return ctx.auditor.verify_query(hh.exact->receipt);
    });
    if (!journal.ok()) {
      ctx.r.op_failed("heavy verify: " + journal.error().to_string());
      return std::nullopt;
    }
    if (journal.value().result !=
        core::evaluate_query(journal.value().query, ctx.state.entries())) {
      ctx.r.wrong("exact heavy-hitter count != host state");
    }
    a.cycles = hh.exact->prove_info.cycles;
    a.receipt = std::move(hh.exact->receipt);
    return a;
  }
  auto journal = timed("query.verify", id, a.verify_ms, [&] {
    return ctx.auditor.verify_heavy_hitters(hh.sketch->receipt);
  });
  if (!journal.ok()) {
    ctx.r.op_failed("heavy verify: " + journal.error().to_string());
    return std::nullopt;
  }
  std::set<netflow::FlowKey> reported;
  for (const auto& hit : journal.value().hits) {
    const auto index = ctx.state.find(hit.key);
    const u64 truth = index ? ctx.state.entry(*index).packets : 0;
    if (hit.count - hit.error > truth || hit.cms_estimate < truth) {
      ctx.r.wrong("heavy hitter outside its proven bracket");
    }
    reported.insert(hit.key);
  }
  for (const auto& entry : ctx.state.entries()) {
    if (entry.packets >= threshold && reported.count(entry.key) == 0) {
      ctx.r.wrong("heavy hitter above the threshold not reported");
    }
  }
  a.cycles = hh.sketch->prove_info.cycles;
  a.receipt = std::move(hh.sketch->receipt);
  return a;
}

/// cardinality(): must equal the exact entry count either way it routes.
std::optional<Answer> answer_cardinality(QueryContext& ctx, u64 id) {
  Answer a;
  auto resp = timed("query.prove", id, a.prove_ms,
                    [&] { return ctx.queries.cardinality(); });
  if (!resp.ok()) {
    ctx.r.op_failed("cardinality: " + resp.error().to_string());
    return std::nullopt;
  }
  core::CardinalityResponse& card = resp.value();
  a.used_sketch = card.used_sketch;
  Result<u64> answer = u64{0};
  if (card.used_sketch) {
    answer = timed("query.verify", id, a.verify_ms, [&]() -> Result<u64> {
      auto journal = ctx.auditor.verify_cardinality(card.sketch->receipt);
      if (!journal.ok()) return journal.error();
      return journal.value().distinct_flows;
    });
    a.cycles = card.sketch->prove_info.cycles;
    a.receipt = std::move(card.sketch->receipt);
  } else {
    answer = timed("query.verify", id, a.verify_ms, [&]() -> Result<u64> {
      auto journal = ctx.auditor.verify_query(card.exact->receipt);
      if (!journal.ok()) return journal.error();
      return journal.value().result.matched;
    });
    a.cycles = card.exact->prove_info.cycles;
    a.receipt = std::move(card.exact->receipt);
  }
  if (!answer.ok()) {
    ctx.r.op_failed("cardinality verify: " + answer.error().to_string());
    return std::nullopt;
  }
  if (answer.value() != ctx.state.entry_count()) {
    ctx.r.wrong("cardinality " + std::to_string(answer.value()) +
                " != " + std::to_string(ctx.state.entry_count()));
  }
  return a;
}

struct QueryClassSamples {
  std::vector<double> prove_ms;
  double cycles = 0;
};

void run_query_mix(const RunConfig& cfg, Report& r) {
  const Shape& shape = cfg.shape;
  std::unique_ptr<Chain> chain;
  std::unique_ptr<core::Auditor> auditor;
  std::vector<double> setup_s;
  for (u32 rep = 0; rep < shape.setup_reps; ++rep) {
    SpanScope setup_span("setup", rep);
    auditor.reset();
    chain.reset();
    SteadyTraffic traffic(cfg.seed, shape.population);
    const auto start = Clock::now();
    auto made = steady_chain(cfg, traffic, 0, shape.query_windows, r);
    if (!made.ok()) {
      r.op_failed("set-up chain: " + made.error().to_string());
      return;
    }
    chain = std::move(made.value());
    auditor = std::make_unique<core::Auditor>(chain->board);
    auto accepted = auditor->accept_rounds(chain->pipeline.receipts());
    if (!accepted.ok()) {
      r.op_failed("auditor: " + accepted.error().to_string());
      return;
    }
    setup_s.push_back(ms_since(start) / 1e3);
  }
  r.set("setup_s", quantile(setup_s, 0.5), "s");

  const core::AggregationService& service = chain->pipeline.aggregation();
  const netflow::RoundSketch& sketch = service.sketch();
  core::QueryService queries(service);
  Xoshiro256 rng(derive_seed(cfg.seed, 5));
  QueryContext ctx{queries,
                   *auditor,
                   service.state(),
                   sketch.total() / sketch.params().heavy_capacity,
                   rng,
                   r};

  std::map<QueryKind, QueryClassSamples> classes;
  std::vector<double> op_ms, verify_ms;
  double busy_ms = 0, proof_bytes = 0, routed_sketch = 0, sketch_queries = 0;
  std::vector<QueryKind> deck(std::begin(kDeck), std::end(kDeck));
  PhaseCounters phase;
  const auto measure_start = Clock::now();
  u64 id = 0;
  do {
    for (size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[rng.uniform(i)]);
    }
    for (QueryKind kind : deck) {
      SpanScope query_span("query", ++id);
      ++r.attempted;
      std::optional<Answer> a =
          kind == QueryKind::heavy  ? answer_heavy(ctx, id)
          : kind == QueryKind::card ? answer_cardinality(ctx, id)
                                    : answer_query(ctx, kind, id);
      if (!a) continue;
      if (kind == QueryKind::heavy || kind == QueryKind::card) {
        ++sketch_queries;
        if (a->used_sketch) ++routed_sketch;
      }
      classes[kind].prove_ms.push_back(a->prove_ms);
      classes[kind].cycles += static_cast<double>(a->cycles);
      op_ms.push_back(a->prove_ms);
      verify_ms.push_back(a->verify_ms);
      busy_ms += a->prove_ms + a->verify_ms;
      proof_bytes += static_cast<double>(a->receipt.to_bytes().size());
    }
  } while (r.failed == 0 && ms_since(measure_start) < cfg.seconds * 1e3);
  phase.close();

  const double ops = static_cast<double>(op_ms.size());
  report_ops(r, op_ms, busy_ms);
  r.set("proof_bytes_per_op", ratio(proof_bytes, ops), "B");
  phase.report(r, ops);
  QueryClassSamples sketch_class = classes[QueryKind::heavy];
  sketch_class.cycles += classes[QueryKind::card].cycles;
  sketch_class.prove_ms.insert(sketch_class.prove_ms.end(),
                               classes[QueryKind::card].prove_ms.begin(),
                               classes[QueryKind::card].prove_ms.end());
  const std::pair<const char*, const QueryClassSamples*> named[] = {
      {"scan", &classes[QueryKind::scan]},
      {"point", &classes[QueryKind::point]},
      {"sketch", &sketch_class}};
  for (const auto& [name, samples] : named) {
    const std::string prefix = std::string("query.") + name;
    r.set(prefix + "_ms_p50", quantile(samples->prove_ms, 0.5), "ms");
    r.set(prefix + "_ms_p90", quantile(samples->prove_ms, 0.9), "ms");
    r.set(prefix + "_cycles",
          ratio(samples->cycles, static_cast<double>(samples->prove_ms.size())),
          "cycles");
  }
  r.set("query.verify_ms_p50", quantile(verify_ms, 0.5), "ms");
  // Recorded, not asserted: a cost-estimator change may route differently.
  r.set("query.sketch_route_ratio", ratio(routed_sketch, sketch_queries),
        "ratio");
}

// ---------------------------------------------------------------------------
// Output.

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string report_json(const Report& r, const RunConfig& cfg, bool smoke) {
  std::string out = "{\n";
  out += "  \"workload\": \"" + r.workload + "\",\n";
  out += "  \"seed\": " + std::to_string(cfg.seed) + ",\n";
  out += "  \"seconds\": " + number(cfg.seconds) + ",\n";
  out += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  out += "  \"machine\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"pool_threads\": " +
         std::to_string(common::ThreadPool::shared().thread_count()) +
         ", \"sha256_backend\": \"" +
         crypto::sha256_backend_name(crypto::sha256_active_backend()) +
         "\", \"cpu_model\": \"" + json_escape(cpu_model()) +
         "\", \"build_type\": \"" ZKT_BUILD_TYPE "\"},\n";
  out += std::string("  \"correct\": ") + (r.correct() ? "true" : "false") +
         ",\n";
  out += "  \"attempted\": " + std::to_string(r.attempted) + ",\n";
  out += "  \"failed\": " + std::to_string(r.failed) + ",\n";
  out += "  \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(r.errors[i]) + "\"";
  }
  out += "],\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += (first ? "\n    \"" : ",\n    \"") + name + "\": {\"value\": " +
           number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

/// Write the trace, print per-layer self time, and add the trace metrics.
void report_trace(Report& r, const std::string& path, double wall_s) {
  const auto& spans = g_tracer.spans();
  const std::vector<double> self = g_tracer.self_ms();

  struct Layer {
    u64 count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Layer> layers;
  std::vector<double> subtree(spans.size(), 0);
  for (size_t i = spans.size(); i-- > 0;) {
    Layer& layer = layers[spans[i].name];
    ++layer.count;
    layer.total_ms +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    layer.self_ms += self[i];
    subtree[i] += self[i];
    if (spans[i].parent >= 0) subtree[spans[i].parent] += subtree[i];
  }
  // Self times of a root span's tree must add back up to the root span.
  double worst_gap = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    const double dur =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    if (dur > 0) {
      worst_gap = std::max(worst_gap, std::fabs(subtree[i] - dur) / dur);
    }
  }
  const double overhead_s =
      static_cast<double>(spans.size()) * span_cost_ns() / 1e9;

  std::printf("\nper-layer self time (%zu spans, %llu dropped) -> %s\n",
              spans.size(), static_cast<unsigned long long>(g_tracer.dropped()),
              path.c_str());
  std::printf("  %-22s %8s %12s %12s\n", "span", "count", "total ms",
              "self ms");
  for (const auto& [name, layer] : layers) {
    std::printf("  %-22s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(layer.count), layer.total_ms,
                layer.self_ms);
  }
  std::printf("self times sum to within %.3f%% of every root span\n",
              worst_gap * 100);
  std::printf("tracing overhead: %.3f ms recording spans, %.4f%% of %.1f s "
              "wall (compare ops_per_s with an untraced run for the "
              "end-to-end effect)\n",
              overhead_s * 1e3, ratio(overhead_s, wall_s) * 100, wall_s);
  r.set("trace.overhead_pct", ratio(overhead_s, wall_s) * 100, "%");
  r.set("trace.self_time_gap_pct", worst_gap * 100, "%");
  r.set("trace.spans", static_cast<double>(spans.size()), "count");
  if (!g_tracer.write_chrome_json(path)) {
    r.wrong("could not write trace " + path);
  }
}

int run_workload(const RunConfig& cfg, bool smoke, const std::string& out_dir,
                 const std::string& trace_path) {
  Report r;
  r.workload = cfg.workload;
  if (!trace_path.empty()) g_tracer.enable(1 << 18);
  const auto start = Clock::now();
  {
    ScratchDir work(cfg.work_dir);
    if (cfg.workload == "steady_delta") {
      run_steady_delta(cfg, r);
    } else if (cfg.workload == "churn_sharded") {
      run_churn_sharded(cfg, r);
    } else {
      run_query_mix(cfg, r);
    }
  }
  r.set("process.peak_rss_mb", peak_rss_mb(), "MB");
  if (!trace_path.empty()) report_trace(r, trace_path, ms_since(start) / 1e3);

  std::printf("\n=== %s (seed %llu, %.1f s measured, %.1f s total) ===\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, ms_since(start) / 1e3);
  for (const auto& [name, m] : r.metrics) {
    std::printf("  %-32s %18.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  attempted %llu, failed %llu, %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct() ? "all outputs correct" : "WRONG OUTPUT");
  for (const auto& e : r.errors) std::printf("  error: %s\n", e.c_str());

  if (!out_dir.empty()) {
    fs::create_directories(out_dir);
    const std::string path =
        (fs::path(out_dir) / ("BENCH_e2e." + cfg.workload + ".json")).string();
    std::ofstream out(path);
    out << report_json(r, cfg, smoke);
    if (!out) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return 1;
    }
  }
  return r.correct() ? 0 : 1;
}

/// Run each workload in a process of its own (peak RSS is per process).
int run_all(int argc, char** argv, const std::vector<std::string>& workloads) {
  int status = 0;
  for (const std::string& workload : workloads) {
    std::vector<std::string> args = {argv[0], "--workload", workload};
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--workload") == 0) {
        ++i;
        continue;
      }
      args.push_back(argv[i]);
      if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
        fs::path p(argv[++i]);
        p.replace_extension();
        args.push_back(p.string() + "." + workload + ".json");
      }
    }
    std::vector<char*> cargv;
    for (auto& a : args) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
      execv("/proc/self/exe", cargv.data());
      _exit(127);
    }
    int child = 0;
    if (pid < 0 || waitpid(pid, &child, 0) < 0 || !WIFEXITED(child) ||
        WEXITSTATUS(child) != 0) {
      std::fprintf(stderr, "workload %s failed\n", workload.c_str());
      status = 1;
    }
  }
  return status;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e [--workload steady_delta|churn_sharded|"
               "query_mix|all] [--seed N] [--seconds S]\n"
               "                 [--out DIR] [--trace PATH] [--work-dir DIR] "
               "[--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> workloads = {"steady_delta", "churn_sharded",
                                              "query_mix"};
  RunConfig cfg;
  cfg.workload = "all";
  std::string out_dir, trace_path;
  fs::path work_root = fs::current_path();
  bool smoke = false;
  std::optional<double> seconds;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        smoke = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        cfg.workload = value;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--out") {
        out_dir = value;
      } else if (arg == "--trace") {
        trace_path = value;
      } else if (arg == "--work-dir") {
        work_root = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (cfg.workload == "all") return run_all(argc, argv, workloads);
  if (std::find(workloads.begin(), workloads.end(), cfg.workload) ==
      workloads.end()) {
    return usage();
  }
  cfg.shape = smoke ? kSmokeShape : kFullShape;
  cfg.seconds = seconds.value_or(smoke ? 0.2 : 20);
  // A directory of this process's own, so nothing else under the root is
  // ever removed.
  cfg.work_dir = work_root / ("bench_e2e." + cfg.workload + "." +
                              std::to_string(getpid()));
  return run_workload(cfg, smoke, out_dir, trace_path);
}
