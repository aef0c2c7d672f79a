// Google-benchmark microbenchmarks for the CSPM core primitives:
// inverted-database construction, gain computation, merge application,
// end-to-end mining and the Algorithm 5 scoring path. The primitive loops
// call the core (InvertedDatabase, ComputeMergeGain, MergeLeafsets)
// directly; the mining and scoring loops go through the engine facade.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cspm/code_model.h"
#include "cspm/gain.h"
#include "cspm/inverted_database.h"
#include "engine/session.h"
#include "graph/generators.h"
#include "util/thread_pool.h"

namespace {

using namespace cspm;

graph::AttributedGraph MakeBenchGraph(uint32_t n) {
  Rng rng(7);
  return graph::ErdosRenyi(n, 8.0 / n, 40, 3, &rng).value();
}

core::InvertedDatabase BuildDatabase(const graph::AttributedGraph& g) {
  return core::InvertedDatabase::FromGraph(g).value();
}

void BM_InvertedDbBuild(benchmark::State& state) {
  auto g = MakeBenchGraph(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildDatabase(g).num_lines());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_InvertedDbBuild)->Arg(500)->Arg(2000)->Arg(8000);

// One gain per iteration, walking the active-pair space round-robin.
void BM_GainComputation(benchmark::State& state) {
  auto g = MakeBenchGraph(2000);
  const core::InvertedDatabase idb = BuildDatabase(g);
  const core::CodeModel cm(g, idb);
  const auto& actives = idb.active_leafsets();
  const size_t m = actives.size();
  size_t i = 0;
  size_t j = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeMergeGain(idb, cm, actives[i], actives[j]).feasible);
    j = (j + 1) % m;
    if (j == i) j = (j + 1) % m;
    if (j == 0) i = (i + 1) % (m - 1);
  }
}
BENCHMARK(BM_GainComputation);

// The gain of every active pair, rows fanned out over a pool of
// state.range(0) threads.
void BM_GainAllPairs(benchmark::State& state) {
  auto g = MakeBenchGraph(2000);
  const core::InvertedDatabase idb = BuildDatabase(g);
  const core::CodeModel cm(g, idb);
  const auto& actives = idb.active_leafsets();
  const size_t m = actives.size();
  const auto threads = static_cast<size_t>(state.range(0));
  const auto row = [&](size_t r) {
    size_t feasible = 0;
    for (size_t c = r + 1; c < m; ++c) {
      feasible += core::ComputeMergeGain(idb, cm, actives[r], actives[c])
                      .feasible;
    }
    return feasible;
  };
  // Built once, so the loop measures the sweep, not thread spawn/join.
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  std::vector<size_t> row_feasible(m - 1, 0);
  for (auto _ : state) {
    if (pool == nullptr) {
      for (size_t r = 0; r + 1 < m; ++r) row_feasible[r] = row(r);
    } else {
      pool->ParallelFor(m - 1, [&](size_t r) { row_feasible[r] = row(r); });
    }
    benchmark::DoNotOptimize(row_feasible.data());
  }
  state.SetItemsProcessed(state.iterations() * m * (m - 1) / 2);
}
// Real time: pooled work runs off the main thread, whose CPU time alone
// would inflate items/s.
BENCHMARK(BM_GainAllPairs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Applies the first feasible merge (in active order) to a freshly built
// database; the rebuild and the search are untimed.
void BM_MergeApply(benchmark::State& state) {
  auto g = MakeBenchGraph(2000);
  core::InvertedDatabase idb = BuildDatabase(g);
  // Built from the graph and the static coreset frequencies, which every
  // rebuild shares.
  const core::CodeModel cm(g, idb);
  for (auto _ : state) {
    state.PauseTiming();
    idb = BuildDatabase(g);
    const auto& actives = idb.active_leafsets();
    core::LeafsetId x{};
    core::LeafsetId y{};
    bool found = false;
    for (size_t a = 0; a < actives.size() && !found; ++a) {
      for (size_t b = a + 1; b < actives.size() && !found; ++b) {
        found = core::ComputeMergeGain(idb, cm, actives[a], actives[b])
                    .feasible;
        if (found) {
          x = actives[a];
          y = actives[b];
        }
      }
    }
    state.ResumeTiming();
    if (found) {
      benchmark::DoNotOptimize(idb.MergeLeafsets(x, y).moved_positions);
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
