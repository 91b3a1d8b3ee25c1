// zkt-sim: run the NetFlow network simulator and emit the artifacts a
// provider would hold — the raw-log store (WAL) and the public commitment
// board file. These feed zkt-prove / zkt-verify.
//
// Usage:
//   zkt-sim --out-dir DIR [--routers 4] [--window-ms 5000]
//           [--packets 30000] [--flows 150] [--duration-ms 25000]
//           [--workload zipf|sla|neutrality] [--violating-fraction 0.05]
//           [--discriminate] [--seed 42] [--path-length 2]
//           [--metrics] [--metrics-json [PATH]] [--metrics-every-ms N]
//
// Any other --flag prints the usage line and exits 1.
//
// --metrics-every-ms dumps the sim.* metrics table to stderr every N ms
// while the simulation runs; --metrics prints it once at the end;
// --metrics-json writes the JSON snapshot (default DIR/sim_metrics.json).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/flags.h"
#include "core/io.h"
#include "metrics_dump.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

using namespace zkt;

namespace {

constexpr std::string_view kUsage =
    "usage: zkt-sim --out-dir DIR [--routers N] [--window-ms MS] "
    "[--packets N] [--flows N] [--duration-ms MS] "
    "[--workload zipf|sla|neutrality] [--violating-fraction F] "
    "[--discriminate] [--seed S] [--path-length N] [--metrics] "
    "[--metrics-json [PATH]] [--metrics-every-ms N]";

/// Dumps the metrics table to stderr every `period_ms` until stopped.
class PeriodicMetricsDump {
 public:
  explicit PeriodicMetricsDump(u64 period_ms) {
    if (period_ms == 0) return;
    thread_ = std::thread([this, period_ms] {
      std::unique_lock lock(mu_);
      while (!stop_) {
        if (cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                         [this] { return stop_; })) {
          return;
        }
        std::fprintf(stderr, "--- metrics ---\n%s",
                     obs::Registry::instance().snapshot().to_table().c_str());
      }
    });
  }

  ~PeriodicMetricsDump() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {"out-dir", "routers", "window-ms", "packets", "flows",
               "duration-ms", "workload", "violating-fraction",
               "discriminate", "seed", "path-length", "metrics",
               "metrics-json", "metrics-every-ms"});
  if (!flags.check(kUsage)) return 1;
  const std::string out_dir = flags.get("out-dir", "zkt-data");
  std::filesystem::create_directories(out_dir);
  const std::string wal_path = out_dir + "/rlogs.wal";
  const std::string commitments_path = out_dir + "/commitments.bin";
  std::filesystem::remove(wal_path);

  store::LogStore logs(store::StoreConfig{.wal_path = wal_path});
  if (auto s = logs.recover(); !s.ok()) {
    std::fprintf(stderr, "store: %s\n", s.to_string().c_str());
    return 1;
  }

  core::CommitmentBoard board;
  sim::SimConfig config;
  config.router_count = static_cast<u32>(flags.get_u64("routers", 4));
  config.window_ms = flags.get_u64("window-ms", 5000);
  config.path_length = static_cast<u32>(flags.get_u64("path-length", 2));
  config.key_seed = flags.get_u64("seed", 42);
  sim::NetFlowSimulator simulator(config, logs, board);

  const u64 packets = flags.get_u64("packets", 30'000);
  const u64 seed = flags.get_u64("seed", 42);
  const std::string workload = flags.get("workload", "zipf");
  std::vector<sim::PacketObservation> traffic;
  if (workload == "zipf") {
    sim::ZipfWorkloadConfig w;
    w.seed = seed;
    w.flow_count = flags.get_u64("flows", 150);
    w.duration_ms = flags.get_u64("duration-ms", 25'000);
    traffic = sim::zipf_workload(w, packets);
  } else if (workload == "sla") {
    sim::SlaWorkloadConfig w;
    w.seed = seed;
    w.flow_count = flags.get_u64("flows", 150);
    w.duration_ms = flags.get_u64("duration-ms", 25'000);
    w.violating_fraction = flags.get_double("violating-fraction", 0.05);
    traffic = sim::sla_workload(w, packets).packets;
  } else if (workload == "neutrality") {
    sim::NeutralityWorkloadConfig w;
    w.seed = seed;
    w.flows_per_provider = flags.get_u64("flows", 150) / 2;
    w.duration_ms = flags.get_u64("duration-ms", 25'000);
    w.discriminate_b = flags.has("discriminate");
    traffic = sim::neutrality_workload(w, packets).packets;
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return 1;
  }

  {
    PeriodicMetricsDump dumper(flags.get_u64("metrics-every-ms", 0));
    if (auto s = simulator.run(std::move(traffic)); !s.ok()) {
      std::fprintf(stderr, "simulation: %s\n", s.to_string().c_str());
      return 1;
    }
  }
  if (auto s = core::save_commitments(board, commitments_path); !s.ok()) {
    std::fprintf(stderr, "save commitments: %s\n", s.to_string().c_str());
    return 1;
  }

  u64 records = 0;
  for (const auto& stats : simulator.router_stats()) records += stats.records;
  std::printf("zkt-sim: %llu packets through %u routers -> %llu records in "
              "%zu windows\n",
              (unsigned long long)packets, config.router_count,
              (unsigned long long)records,
              simulator.committed_windows().size());
  std::printf("  raw logs    -> %s (%llu rows)\n", wal_path.c_str(),
              (unsigned long long)logs.row_count(store::kTableRlogs));
  std::printf("  commitments -> %s (%zu published)\n",
              commitments_path.c_str(), board.size());

  return tools::finish(flags, out_dir + "/sim_metrics.json", 0);
}
