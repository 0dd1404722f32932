// Scaling micro-benchmark for the work-stealing parallel B&B engine.
//
// Measures whole-engine speed at a sweep of thread counts and compares each
// against the same engine at 1 thread.
//
// Workload: the frozen tight-par pool of the repository benchmark
// (perfbench/data/tight_par.json, read-only): §4.1 graphs scaled to 16–18
// tasks, depth 6–9, path-sliced laxity 1.1, LB2, m = 3, whose sequential
// search exhausts the tree after 400k–800k generated vertices. Every pool
// entry carries its optimal cost, so there is no screening at run time
// and no candidate is dropped: the first --graphs entries of the family
// (by default the whole family of 24) are the instances, each 15–60 ms
// long at 1 thread on a 4-vCPU Xeon.
//
// For each thread count the table reports expansions/sec, the wall-time
// speedup over 1 thread (1-thread time / N-thread time), the work ratio
// (vertices expanded at N threads / at 1 thread), the parallel efficiency
// (speedup / threads), the steal success rate (steals that returned >= 1
// vertex / steal probes) and successful steals per 1000 expansions.
// Speedup and rates are geometric means over (instance, repeat) samples.
// Every run's optimal lateness is checked against the pool; a disagreement
// fails the benchmark — numbers from a wrong search are worthless.
//
// Hand-rolled timing instead of google-benchmark so the binary stays
// dependency-free and scriptable; --json writes a machine-readable
// parabb-bench-v1 report.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/experiments/report.hpp"
#include "parabb/platform/machine.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/support/cli.hpp"
#include "parabb/support/json.hpp"
#include "parabb/support/table.hpp"
#include "parabb/workload/generator.hpp"

namespace parabb {
namespace {

struct Instance {
  std::uint64_t gen_seed = 0;
  TaskGraph graph;  ///< owns the graph the context points into
  std::unique_ptr<SchedContext> ctx;
  Time optimum = kTimeInf;  ///< the pool's recorded optimal cost
  double base_seconds = 0.0;  ///< 1-thread wall time of the current repeat
  double base_expanded = 0.0;
};

struct WidthRun {
  double log_rate_sum = 0.0;     ///< sum of ln(expansions/sec)
  double log_speedup_sum = 0.0;  ///< sum of ln(1-thread time / this time)
  double log_work_sum = 0.0;     ///< sum of ln(expanded / 1-thread expanded)
  int samples = 0;
  double steals_attempted = 0.0;
  double steals_succeeded = 0.0;
  double expanded = 0.0;

  double geomean(double log_sum) const {
    return samples > 0 ? std::exp(log_sum / samples) : 0.0;
  }
};

/// The tight-par pool generator: perfbench's tight_config() and
/// make_graph(), restated so the bench does not link the benchmark harness.
TaskGraph pool_graph(std::uint64_t gen_seed) {
  GeneratorConfig cfg = paper_config();
  cfg.n_min = 16;
  cfg.n_max = 18;
  cfg.depth_min = 6;
  cfg.depth_max = 9;
  GeneratedGraph g = generate_graph(cfg, gen_seed);
  SlicingConfig s;
  s.base = LaxityBase::kPathWork;
  s.laxity = 1.1;
  assign_deadlines_slicing(g.graph, s);
  return std::move(g.graph);
}

/// The first `count` entries of `family` in the pool file, in pool order.
std::vector<Instance> load_pool(const std::string& path,
                                const std::string& family, int count,
                                const Machine& machine) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pool file " + path);
  std::stringstream text;
  text << in.rdbuf();
  const JsonValue doc = JsonValue::parse(text.str());
  const JsonValue* families = doc.find("families");
  const JsonValue* fam = families ? families->find(family) : nullptr;
  const JsonValue* entries = fam ? fam->find("instances") : nullptr;
  if (entries == nullptr)
    throw std::runtime_error("pool file has no family '" + family + "'");
  std::vector<Instance> out;
  for (const JsonValue& e : entries->items()) {
    if (static_cast<int>(out.size()) >= count) break;
    Instance inst;
    inst.gen_seed = static_cast<std::uint64_t>(e.items().at(0).as_int());
    inst.optimum = e.items().at(1).as_int();
    inst.graph = pool_graph(inst.gen_seed);
    inst.ctx = std::make_unique<SchedContext>(inst.graph, machine);
    out.push_back(std::move(inst));
  }
  return out;
}

int run(int argc, const char* const* argv) {
  ArgParser parser("micro_parallel",
                   "parallel B&B speedup, work ratio and efficiency across "
                   "thread counts against 1 thread, on the frozen tight-par "
                   "pool");
  parser.add_option("threads",
                    "thread counts to sweep (1 is always measured)",
                    "1,2,4,8");
  parser.add_option("pool", "tight-par pool file (read-only)",
                    PARABB_TIGHT_PAR_POOL);
  parser.add_option("family", "pool family: dev or heldout", "dev");
  parser.add_option("graphs", "pool instances, in pool order", "24");
  parser.add_option("repeats", "measured runs per instance", "2");
  parser.add_option("steal-batch",
                    "ws steal cap (0 = half the victim's deque)", "0");
  parser.add_option("json", "write a parabb-bench-v1 report to this path",
                    "");
  parser.add_flag("quick", "one tiny iteration (bench_smoke)");
  if (!parser.parse(argc, argv)) return 0;

  int graphs = static_cast<int>(parser.get_int("graphs"));
  int repeats = static_cast<int>(parser.get_int("repeats"));
  const std::string family = parser.get_string("family");
  const int steal_batch = static_cast<int>(parser.get_int("steal-batch"));
  std::vector<int> thread_counts{1};  // the speedup base
  for (const std::int64_t t : parser.get_int_list("threads"))
    if (t != 1) thread_counts.push_back(static_cast<int>(t));
  if (parser.has_flag("quick")) {
    graphs = 1;
    repeats = 1;
    thread_counts = {1, 2};
  }

  constexpr int kProcs = 3;
  const Machine machine = make_shared_bus_machine(kProcs);
  std::vector<Instance> instances =
      load_pool(parser.get_string("pool"), family, graphs, machine);
  if (instances.empty()) {
    std::fprintf(stderr, "the pool family has no instances\n");
    return 1;
  }

  std::printf("# micro_parallel\n");
  std::printf("workload: tight-par pool family '%s' (16-18 tasks, laxity "
              "1.1, LB2, %d procs, 400k-800k generated each); "
              "%zu instances x %d repeats per point\n",
              family.c_str(), kProcs, instances.size(), repeats);
  std::fflush(stdout);

  const auto solve = [&](const SchedContext& ctx, int threads) {
    ParallelParams pp;
    pp.base.lb = LowerBound::kLB2;
    pp.threads = threads;
    pp.steal_batch = steal_batch;
    return solve_bnb_parallel(ctx, pp);
  };

  // Interleaved measurement: for every (instance, repeat) the 1-thread
  // base runs first (the speedup and work ratio need it), then the other
  // thread counts in an order rotated per sample, so machine-wide noise
  // spreads over every width instead of whichever ran last.
  std::vector<WidthRun> runs(thread_counts.size());
  bool all_agree = true;
  const auto one = [&](std::size_t w, Instance& inst) {
    const int threads = thread_counts[w];
    const ParallelResult res = solve(*inst.ctx, threads);
    if (res.best_cost != inst.optimum ||
        res.reason != TerminationReason::kExhausted) {
      all_agree = false;
      std::fprintf(stderr, "COST MISMATCH: seed %llu at %d threads gave "
                           "%lld, pool optimum %lld\n",
                   static_cast<unsigned long long>(inst.gen_seed), threads,
                   static_cast<long long>(res.best_cost),
                   static_cast<long long>(inst.optimum));
    }
    const auto expanded = static_cast<double>(res.stats.expanded);
    if (w == 0) {
      inst.base_seconds = res.stats.seconds;
      inst.base_expanded = expanded;
    }
    WidthRun& run = runs[w];
    run.steals_attempted += static_cast<double>(res.stats.steals_attempted);
    run.steals_succeeded += static_cast<double>(res.stats.steals_succeeded);
    run.expanded += expanded;
    if (res.stats.seconds > 0.0 && expanded > 0.0 &&
        inst.base_seconds > 0.0 && inst.base_expanded > 0.0) {
      run.log_rate_sum += std::log(expanded / res.stats.seconds);
      run.log_speedup_sum += std::log(inst.base_seconds / res.stats.seconds);
      run.log_work_sum += std::log(expanded / inst.base_expanded);
      ++run.samples;
    }
  };

  // Warm-up: touch every instance once so the first measured point is not
  // paying cold caches for everyone else.
  for (const Instance& inst : instances) (void)solve(*inst.ctx, 1);

  const std::size_t widths = thread_counts.size();
  for (std::size_t ii = 0; ii < instances.size(); ++ii) {
    for (int r = 0; r < repeats; ++r) {
      one(0, instances[ii]);
      const std::size_t others = widths - 1;
      for (std::size_t k = 0; k < others; ++k) {
        one(1 + (ii + static_cast<std::size_t>(r) + k) % others,
            instances[ii]);
      }
    }
  }

  TextTable table;
  table.set_header({"threads", "exp/s", "speedup", "work ratio",
                    "efficiency%", "steal ok%", "steals/kexp"});
  double speedup_at_max_threads = 0.0;
  double efficiency_at_max_threads = 0.0;
  for (std::size_t w = 0; w < widths; ++w) {
    const WidthRun& run = runs[w];
    const int t = thread_counts[w];
    const double speedup = run.geomean(run.log_speedup_sum);
    const double efficiency = speedup / t;
    speedup_at_max_threads = speedup;
    efficiency_at_max_threads = efficiency;
    table.add_row(
        {std::to_string(t),
         fmt_double(run.geomean(run.log_rate_sum) / 1e3, 1) + "k",
         fmt_double(speedup, 2) + "x",
         fmt_double(run.geomean(run.log_work_sum), 3),
         fmt_double(efficiency * 100.0, 1),
         fmt_double(run.steals_attempted > 0.0
                        ? 100.0 * run.steals_succeeded / run.steals_attempted
                        : 0.0,
                    1),
         fmt_double(run.expanded > 0.0
                        ? 1e3 * run.steals_succeeded / run.expanded
                        : 0.0,
                    2)});
  }

  std::printf("\n## work-stealing speedup by thread count\n%s\n",
              table.to_string().c_str());
  std::printf("costs %s with the pool optimum in every run\n",
              all_agree ? "AGREE" : "DISAGREE");

  const std::string json_path = parser.get_string("json");
  if (!json_path.empty()) {
    JsonValue doc = bench_document("micro_parallel");
    JsonValue threads = JsonValue::array();
    for (const int t : thread_counts) threads.push_back(t);
    doc.set("threads", std::move(threads));
    JsonValue plan = JsonValue::object();
    plan.set("pool", "perfbench/data/tight_par.json");
    plan.set("family", family);
    plan.set("procs", kProcs);
    plan.set("instances", static_cast<std::int64_t>(instances.size()));
    plan.set("repeats", repeats);
    doc.set("replication", std::move(plan));
    doc.set("costs_agree", all_agree);
    doc.set("speedup_at_max_threads", speedup_at_max_threads);
    doc.set("efficiency_at_max_threads", efficiency_at_max_threads);
    JsonValue tables = JsonValue::object();
    tables.set("throughput", table_to_json(table));
    doc.set("tables", std::move(tables));
    write_text_file(json_path, doc.dump() + "\n");
    std::printf("json report written to %s\n", json_path.c_str());
  }
  return all_agree ? 0 : 1;
}

}  // namespace
}  // namespace parabb

int main(int argc, char** argv) { return parabb::run(argc, argv); }
