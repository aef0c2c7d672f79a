// Google-benchmark microbenchmarks for the CSPM core primitives:
// inverted-database construction, gain computation, merge application,
// end-to-end mining and the Algorithm 5 scoring path. The hot paths run
// through the engine micro harness so this file compiles against the
// facade only; the loops themselves execute directly on the core.
#include <benchmark/benchmark.h>

#include "engine/micro.h"
#include "engine/session.h"
#include "graph/generators.h"

namespace {

using namespace cspm;

graph::AttributedGraph MakeBenchGraph(uint32_t n) {
  Rng rng(7);
  return graph::ErdosRenyi(n, 8.0 / n, 40, 3, &rng).value();
}

void BM_InvertedDbBuild(benchmark::State& state) {
  auto g = MakeBenchGraph(static_cast<uint32_t>(state.range(0)));
  engine::micro::CoreHarness harness(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.RebuildDatabase());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_InvertedDbBuild)->Arg(500)->Arg(2000)->Arg(8000);

void BM_GainComputation(benchmark::State& state) {
  auto g = MakeBenchGraph(2000);
  engine::micro::CoreHarness harness(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.GainSweep(1));
  }
}
BENCHMARK(BM_GainComputation);

void BM_GainAllPairs(benchmark::State& state) {
  auto g = MakeBenchGraph(2000);
  engine::micro::CoreHarness harness(g);
  const auto threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.GainSweepAllPairs(threads));
  }
  state.SetItemsProcessed(
      state.iterations() * harness.num_active_leafsets() *
      (harness.num_active_leafsets() - 1) / 2);
}
// Real time: pooled work runs off the main thread, whose CPU time alone
// would inflate items/s.
BENCHMARK(BM_GainAllPairs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_MergeApply(benchmark::State& state) {
  auto g = MakeBenchGraph(2000);
  engine::micro::CoreHarness harness(g);
  for (auto _ : state) {
    state.PauseTiming();
    harness.RebuildDatabase();
    const bool found = harness.StageFirstFeasibleMerge();
    state.ResumeTiming();
    if (found) {
      benchmark::DoNotOptimize(harness.ApplyStagedMerge());
    }
  }
}
BENCHMARK(BM_MergeApply)->Iterations(20);

void BM_MineEndToEnd(benchmark::State& state) {
  auto g = MakeBenchGraph(static_cast<uint32_t>(state.range(0)));
  engine::MiningOptions options;
  options.record_iteration_stats = false;
  for (auto _ : state) {
    auto model = engine::MineModel(g, options).value();
    benchmark::DoNotOptimize(model.astars.size());
  }
}
BENCHMARK(BM_MineEndToEnd)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_MineBasicThreads(benchmark::State& state) {
  auto g = MakeBenchGraph(500);
  engine::MiningOptions options;
  options.strategy = engine::Search::kBasic;
  options.record_iteration_stats = false;
  options.num_threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto model = engine::MineModel(g, options).value();
    benchmark::DoNotOptimize(model.astars.size());
  }
}
BENCHMARK(BM_MineBasicThreads)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ScoringModule(benchmark::State& state) {
  auto g = MakeBenchGraph(2000);
  engine::MiningOptions options;
  options.record_iteration_stats = false;
  auto session = engine::MiningSession::Create(g, options).value();
  if (!session.Mine().ok()) {
    state.SkipWithError("mining failed");
    return;
  }
  graph::VertexId v(0);
  for (auto _ : state) {
    auto scores = session.Score(v);
    benchmark::DoNotOptimize(scores.normalized.data());
    v = graph::VertexId((v.value() + 1) % g.num_vertices().value());
  }
}
BENCHMARK(BM_ScoringModule);

}  // namespace

BENCHMARK_MAIN();
