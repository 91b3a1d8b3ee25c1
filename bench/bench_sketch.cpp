// Host-side Count-Min benchmarks: update/estimate throughput and accuracy
// vs width (the memory/accuracy dial a deployment turns). The proven
// round-sketch queries are measured by bench_sketch_query.
#include <benchmark/benchmark.h>

#include <map>

#include "common/rng.h"
#include "netflow/sketch.h"
#include "sim/workload.h"

using namespace zkt;

namespace {

void BM_CountMinUpdate(benchmark::State& state) {
  netflow::CountMinSketch sketch(netflow::CountMinParams{
      .width = static_cast<u32>(state.range(0)), .depth = 4, .seed = 1});
  auto packets =
      sim::zipf_workload(sim::ZipfWorkloadConfig{.flow_count = 4096}, 50'000);
  u64 i = 0;
  for (auto _ : state) {
    sketch.update(packets[i++ % packets.size()].key, 1);
  }
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CountMinUpdate)->Arg(1024)->Arg(65536);

void BM_CountMinEstimate(benchmark::State& state) {
  netflow::CountMinSketch sketch(
      netflow::CountMinParams{.width = 4096, .depth = 4, .seed = 1});
  for (u64 f = 0; f < 1000; ++f) sketch.update(sim::synth_flow_key(f, 1), f);
  u64 i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sketch.estimate(sim::synth_flow_key(i++ % 1000, 1)));
  }
}
BENCHMARK(BM_CountMinEstimate);

// Accuracy vs width: mean relative overestimate across a Zipf stream. Not a
// timing benchmark — the counters are the result.
void BM_CountMinAccuracy(benchmark::State& state) {
  const u32 width = static_cast<u32>(state.range(0));
  double rel_error_sum = 0;
  u64 flows = 0;
  for (auto _ : state) {
    netflow::CountMinSketch sketch(
        netflow::CountMinParams{.width = width, .depth = 4, .seed = 7});
    std::map<netflow::FlowKey, u64> truth;
    auto packets = sim::zipf_workload(
        sim::ZipfWorkloadConfig{.seed = 7, .flow_count = 5000}, 100'000);
    for (const auto& pkt : packets) {
      sketch.update(pkt.key, 1);
      ++truth[pkt.key];
    }
    rel_error_sum = 0;
    flows = 0;
    for (const auto& [key, count] : truth) {
      const u64 est = sketch.estimate(key);
      rel_error_sum += static_cast<double>(est - count) /
                       static_cast<double>(count);
      ++flows;
    }
    benchmark::DoNotOptimize(rel_error_sum);
  }
  state.counters["mean_rel_overestimate"] =
      rel_error_sum / static_cast<double>(flows);
  state.counters["distinct_flows"] = static_cast<double>(flows);
}
BENCHMARK(BM_CountMinAccuracy)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
