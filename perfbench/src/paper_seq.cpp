// paper-seq: the paper's own workload and optimal configuration.
//
// §4.1 graphs (12-16 tasks, depth 8-12, CCR 1.0), path-sliced deadlines at
// laxity 1.5, a shared-bus machine with m=3, BFn/LIFO/U-DBAS/LB1/U=EDF/BR=0,
// solved one after another by SchedContext + solve_bnb on one thread.
//
// Why it looks the way it does: nearly all of its time is spent in the
// sequential B&B hot path, while the median instance (~0.2 ms) is carried by
// fixed per-instance costs (context build, EDF). Instance cost is extremely
// heavy-tailed: one seed's 200 instances take 3 s, another's 17 s, because a
// handful of instances need 10^7-10^8 generated vertices. So that every
// seed measures the same kind of work, the suite is large (3000 instances)
// and every solve carries a max_generated budget of 20000 vertices — the
// service's own budget mechanism, deterministic for the sequential engine.
// About a fifth of the instances hit the budget and return their budget
// incumbent (outcome feasible, not proved); the rest are proved optimal.
#include <cstdio>
#include <filesystem>

#include "common.hpp"
#include "oracle.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/sched/edf.hpp"
#include "unit_costs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kInstances = 3000;
constexpr std::uint64_t kMaxGenerated = 20000;
constexpr int kProcs = 3;
constexpr double kLaxity = 1.5;
constexpr std::size_t kMinPasses = 3;
constexpr int kTracedPairs = 3;

std::vector<parabb::TaskGraph> generate_suite(std::uint64_t seed) {
  std::vector<parabb::TaskGraph> graphs;
  graphs.reserve(kInstances);
  for (int i = 0; i < kInstances; ++i) {
    graphs.push_back(make_graph(parabb::paper_config(),
                                item_seed(seed, static_cast<std::uint64_t>(i)),
                                kLaxity));
  }
  return graphs;
}

}  // namespace

Result run_paper_seq(const Options& opt) {
  Result res;
  Metrics& m = res.metrics;
  const parabb::Machine machine = parabb::make_shared_bus_machine(kProcs);
  parabb::Params params;  // the paper's configuration
  params.rb.max_generated = kMaxGenerated;

  // Set-up (generate the suite, read the expected costs) is repeated
  // before every pass so its samples spread over the whole run.
  std::vector<double> setup_s, generate_s;
  std::vector<parabb::TaskGraph> graphs;
  std::vector<Expected> expected;
  const auto setup = [&] {
    const auto t0 = Clock::now();
    graphs = generate_suite(opt.seed);
    generate_s.push_back(since(t0));
    expected = load_expected(opt);
    setup_s.push_back(since(t0));
  };
  setup();
  if (!expected.empty() && expected.size() != graphs.size()) {
    res.tally.check(false, "expected-cost file has the wrong length");
    expected.clear();
  }

  // Oracle reference: EDF is the initial incumbent, so no result may be
  // worse than it. Computed once, outside every timed window.
  std::vector<parabb::Time> edf;
  for (const parabb::TaskGraph& g : graphs) {
    edf.push_back(
        parabb::schedule_edf(parabb::SchedContext(g, machine)).max_lateness);
  }

  std::vector<Expected> first;  // results of the first pass
  std::vector<parabb::SearchResult> results(graphs.size());
  const auto pass = [&](Spans* spans, std::vector<double>* per_instance,
                        std::vector<double>* context_s,
                        parabb::SearchStats* stats) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const auto ti = Clock::now();
      SpanScope job(spans, "job", i);
      SpanScope ctx_span(spans, "sched.context", i, job.index());
      const parabb::SchedContext ctx(graphs[i], machine);
      ctx_span.end();
      if (context_s) context_s->push_back(since(ti));
      SpanScope search(spans, "bnb.search", i, job.index());
      results[i] = parabb::solve_bnb(ctx, params);
      search.end();
      job.end();
      if (per_instance) per_instance->push_back(since(ti));
    }
    const double wall = since(t0);

    // Oracle, outside the timed window.
    const bool first_pass = first.empty();
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const parabb::SearchResult& r = results[i];
      if (stats) accumulate(*stats, r.stats);
      std::string why = r.found_solution
                            ? check_solution(graphs[i], machine, r.best,
                                             r.best_cost)
                            : "no schedule";
      if (why.empty() && r.best_cost > edf[i]) why = "worse than EDF";
      if (why.empty() && !expected.empty()) {
        why = check_expected(r.best_cost, r.proved, expected[i]);
      }
      if (why.empty() && !first_pass &&
          (r.best_cost != first[i].cost || r.proved != first[i].proved)) {
        why = "result differs from the first pass";
      }
      res.tally.check(why.empty(),
                      "paper-seq instance " + std::to_string(i) + ": " + why);
      if (first_pass) first.push_back({r.best_cost, r.proved});
    }
    return wall;
  };

  if (opt.write_expected) {
    pass(nullptr, nullptr, nullptr, nullptr);
    print_expected(opt, first);
    return res;
  }

  const auto run_t0 = Clock::now();
  if (!opt.trace) {
    // Percentiles are taken per pass (3000 samples each) and the run
    // reports their median over passes, like the pass times.
    std::vector<double> walls, p50, p90;
    do {
      if (!walls.empty()) setup();
      std::vector<double> per_instance;
      walls.push_back(pass(nullptr, &per_instance, nullptr, nullptr));
      p50.push_back(quantile(per_instance, 0.5) * 1e3);
      p90.push_back(quantile(per_instance, 0.9) * 1e3);
    } while (walls.size() < kMinPasses || since(run_t0) < opt.seconds);
    std::fprintf(stderr,
                 "paper-seq: %zu passes of %zu per-instance samples\n",
                 walls.size(), graphs.size());
    m.set("setup_s", median(setup_s), "s");
    m.set("suite_s", median(walls), "s");
    m.set("solve_p50_ms", median(p50), "ms");
    m.set("solve_p90_ms", median(p90), "ms");
    m.set("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB");
    return res;
  }

  // Traced run: untraced and traced passes alternate for the measuring
  // window; the layer numbers come from the first traced pass, the
  // overhead from the medians.
  std::vector<double> untraced, traced;
  Spans spans;
  std::vector<double> context_s;
  parabb::SearchStats stats;
  for (int r = 0; r < kTracedPairs || since(run_t0) < opt.seconds; ++r) {
    untraced.push_back(pass(nullptr, nullptr, nullptr, nullptr));
    const bool first_traced = r == 0;
    Spans scratch;
    traced.push_back(pass(first_traced ? &spans : &scratch, nullptr,
                          first_traced ? &context_s : nullptr,
                          first_traced ? &stats : nullptr));
  }

  std::vector<double> edf_s;
  std::vector<parabb::SchedContext> ctxs;
  ctxs.reserve(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    ctxs.emplace_back(graphs[i], machine);
    const auto t0 = Clock::now();
    const parabb::EdfResult e = parabb::schedule_edf(ctxs.back());
    edf_s.push_back(since(t0));
    res.tally.check(e.max_lateness == edf[i],
                    "EDF is not deterministic on instance " +
                        std::to_string(i));
  }
  std::vector<const parabb::SchedContext*> sample_ctxs;
  for (std::size_t i = 0; i < ctxs.size() && i < 200; ++i) {
    sample_ctxs.push_back(&ctxs[i]);
  }
  const UnitCosts u =
      measure_unit_costs(sample_ctxs, parabb::LowerBound::kLB1, opt.seed);

  m.set("workload.generate_ms", median(generate_s) * 1e3, "ms");
  m.set("sched.context_us", median(context_s) * 1e6, "us");
  m.set("sched.edf_us", median(edf_s) * 1e6, "us");
  set_bnb_metrics(stats, u, m);
  set_span_shares(spans, m);
  m.set("trace.overhead_frac", median(traced) / median(untraced) - 1.0,
        "fraction");
  fill_missing_layers(m);
  std::filesystem::create_directories(opt.out_dir);
  spans.write_jsonl(opt.out_dir + "/paper-seq-" + std::to_string(opt.seed) +
                    ".jsonl");
  return res;
}

}  // namespace perfbench
