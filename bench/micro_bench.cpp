// Hot-path micro-benchmarks (google-benchmark).
//
// Covers the operations whose per-call cost bounds B&B throughput: the
// scheduling operation (placement, and place/unplace as the engines pair
// them), the lower-bound evaluations, the
// active-set disciplines, the vertex pool, plus end-to-end baselines.
#include <benchmark/benchmark.h>

#include "parabb/bnb/active_set.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/lower_bound.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/sched/edf.hpp"
#include "parabb/support/pool.hpp"
#include "parabb/workload/generator.hpp"

namespace parabb {
namespace {

TaskGraph bench_graph(std::uint64_t seed) {
  GeneratedGraph g = generate_graph(paper_config(), seed);
  assign_deadlines_slicing(g.graph);
  return std::move(g.graph);
}

void BM_Placement(benchmark::State& state) {
  const TaskGraph g = bench_graph(1);
  const SchedContext ctx(g, make_shared_bus_machine(4));
  const PartialSchedule empty = PartialSchedule::empty(ctx);
  for (auto _ : state) {
    PartialSchedule ps = empty;
    while (!ps.complete(ctx)) {
      ps.place(ctx, *ps.ready().begin(),
               static_cast<ProcId>(ps.count() & 3));
    }
    benchmark::DoNotOptimize(ps);
  }
  state.SetItemsProcessed(state.iterations() * g.task_count());
}
BENCHMARK(BM_Placement);

// The scheduling operation as the engines use it: place → unplace through
// the incremental evaluator, over every ready × processor child of a
// mid-depth state (one expansion's children, minus their bounds).
void BM_PlaceUnplace(benchmark::State& state) {
  const TaskGraph g = bench_graph(1);
  const SchedContext ctx(g, make_shared_bus_machine(4));
  PartialSchedule ps = PartialSchedule::empty(ctx);
  for (int i = 0; i < ctx.task_count() / 2; ++i) {
    ps.place(ctx, *ps.ready().begin(), static_cast<ProcId>(i & 3));
  }
  IncrementalLB inc(ctx);
  inc.attach(ps);
  const TaskSet ready = ps.ready();
  for (auto _ : state) {
    for (const TaskId t : ready) {
      for (ProcId p = 0; p < ctx.proc_count(); ++p) {
        benchmark::DoNotOptimize(inc.place(ps, t, p));
        inc.unplace(ps, t);
      }
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * ready.size() *
                          ctx.proc_count());
}
BENCHMARK(BM_PlaceUnplace);

template <LowerBound kBound>
void BM_LowerBound(benchmark::State& state) {
  const TaskGraph g = bench_graph(2);
  const SchedContext ctx(g, make_shared_bus_machine(4));
  PartialSchedule ps = PartialSchedule::empty(ctx);
  // Half-scheduled state: the typical vertex.
  for (int i = 0; i < ctx.task_count() / 2; ++i) {
    ps.place(ctx, *ps.ready().begin(), static_cast<ProcId>(i & 3));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lower_bound_cost(ctx, ps, kBound));
  }
}
BENCHMARK(BM_LowerBound<LowerBound::kLB0>)->Name("BM_LowerBound_LB0");
BENCHMARK(BM_LowerBound<LowerBound::kLB1>)->Name("BM_LowerBound_LB1");
BENCHMARK(BM_LowerBound<LowerBound::kLB2>)->Name("BM_LowerBound_LB2");

void BM_EdfSchedule(benchmark::State& state) {
  const TaskGraph g = bench_graph(3);
  const SchedContext ctx(g, make_shared_bus_machine(
                                static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_edf(ctx));
  }
}
BENCHMARK(BM_EdfSchedule)->Arg(2)->Arg(4);

void BM_Generate(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_graph(paper_config(), ++seed));
  }
}
BENCHMARK(BM_Generate);

void BM_Slicing(benchmark::State& state) {
  GeneratedGraph gen = generate_graph(paper_config(), 5);
  for (auto _ : state) {
    TaskGraph g = gen.graph;
    benchmark::DoNotOptimize(assign_deadlines_slicing(g));
  }
}
BENCHMARK(BM_Slicing);

void BM_ActiveSetPushPop(benchmark::State& state) {
  const auto rule = static_cast<SelectRule>(state.range(0));
  for (auto _ : state) {
    ActiveSet as(rule, [](SlotRef) {});
    for (std::uint32_t i = 0; i < 1024; ++i) {
      as.push(VertexEntry{static_cast<Time>((i * 7919) % 257), i,
                          SlotRef{i, 0}});
    }
    while (!as.empty()) benchmark::DoNotOptimize(as.pop());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ActiveSetPushPop)
    ->Arg(static_cast<int>(SelectRule::kLIFO))
    ->Arg(static_cast<int>(SelectRule::kFIFO))
    ->Arg(static_cast<int>(SelectRule::kLLB));

void BM_SlotPoolChurn(benchmark::State& state) {
  SlotPool pool(256);
  for (auto _ : state) {
    SlotRef refs[64];
    for (auto& r : refs) r = pool.allocate();
    for (auto& r : refs) pool.release(r);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SlotPoolChurn);

void BM_SolveTight(benchmark::State& state) {
  // Small nontrivial end-to-end search.
  GeneratorConfig wl = paper_config();
  wl.n_min = wl.n_max = 12;
  wl.depth_min = wl.depth_max = 8;
  GeneratedGraph gen = generate_graph(wl, 7);
  SlicingConfig tight;
  tight.base = LaxityBase::kPathWork;
  tight.laxity = 1.1;
  assign_deadlines_slicing(gen.graph, tight);
  const SchedContext ctx(gen.graph, make_shared_bus_machine(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_bnb(ctx, Params{}));
  }
}
BENCHMARK(BM_SolveTight)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parabb
