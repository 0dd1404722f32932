#include "unit_costs.hpp"

#include <algorithm>

#include "parabb/bnb/active_set.hpp"
#include "parabb/bnb/lower_bound.hpp"
#include "parabb/bnb/transposition.hpp"
#include "parabb/sched/edf.hpp"

namespace perfbench {
namespace {

using parabb::PartialSchedule;
using parabb::SchedContext;

struct Sample {
  const SchedContext* ctx = nullptr;
  PartialSchedule state;
  parabb::Time cutoff = 0;  ///< the instance's EDF cost: the first incumbent
};

constexpr int kSamples = 3000;
constexpr std::uint64_t kSampleBudget = 20000;
constexpr int kReps = 9;

/// Reservoir-samples the child states the engine itself generates: the
/// characteristic hook F sees every generated non-goal child, so a hook
/// that always accepts leaves the search unchanged while it samples. Each
/// instance's search is capped at kSampleBudget generated vertices.
std::vector<Sample> sample_states(
    const std::vector<const SchedContext*>& ctxs, parabb::LowerBound kind,
    std::uint64_t seed) {
  const std::size_t per_ctx =
      static_cast<std::size_t>(kSamples) / ctxs.size() + 1;
  std::uint64_t rng = seed ^ 0x5eed5eedULL;
  std::vector<Sample> out;
  for (const SchedContext* ctx : ctxs) {
    std::vector<PartialSchedule> kept;
    std::uint64_t seen = 0;
    parabb::Params p;
    p.lb = kind;
    p.rb.max_generated = kSampleBudget;
    p.characteristic = [&](const SchedContext&, const PartialSchedule& ps) {
      ++seen;
      if (kept.size() < per_ctx) {
        kept.push_back(ps);
      } else {
        const auto j = static_cast<std::uint64_t>(
            uniform01(rng) * static_cast<double>(seen));
        if (j < per_ctx) kept[j] = ps;
      }
      return true;
    };
    parabb::solve_bnb(*ctx, p);
    const parabb::Time cutoff = parabb::schedule_edf(*ctx).max_lateness;
    for (const PartialSchedule& ps : kept) out.push_back({ctx, ps, cutoff});
  }
  return out;
}

template <class F>
double median_seconds(F&& body) {
  std::vector<double> t;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    body();
    t.push_back(since(t0));
  }
  return median(t);
}

// Keeps the timed results observable so the loops are not optimized away.
volatile std::int64_t g_sink = 0;

}  // namespace

UnitCosts measure_unit_costs(const std::vector<const SchedContext*>& ctxs,
                             parabb::LowerBound kind, std::uint64_t seed) {
  const std::vector<Sample> samples = sample_states(ctxs, kind, seed);
  std::uint64_t children = 0;
  for (const Sample& s : samples) {
    children += static_cast<std::uint64_t>(s.state.ready().size()) *
                static_cast<std::uint64_t>(s.ctx->proc_count());
  }
  parabb::TranspositionConfig tcfg;
  tcfg.enabled = true;
  parabb::TranspositionTable table(tcfg);

  // mode 0: attach only; 1: + place/unplace per child; 2: + evaluate;
  // 3: + transposition probe. Differences isolate each primitive.
  const auto walk = [&](int mode) {
    std::int64_t acc = 0;
    for (const Sample& s : samples) {
      PartialSchedule ps = s.state;
      parabb::IncrementalLB lb(*s.ctx);
      lb.attach(ps);
      if (mode == 0) {
        acc += ps.count();
        continue;
      }
      for (const parabb::TaskId t : s.state.ready()) {
        for (parabb::ProcId p = 0; p < s.ctx->proc_count(); ++p) {
          acc += lb.place(ps, t, p);
          if (mode == 2) acc += lb.evaluate(ps, kind, s.cutoff);
          if (mode == 3) acc += table.seen_or_insert(ps, ps.count()) ? 1 : 0;
          lb.unplace(ps, t);
        }
      }
    }
    g_sink = g_sink + acc;
  };
  // The four walks are interleaved within each repetition, so a slow
  // stretch of the host hits all of them alike; each primitive's cost is
  // the median over repetitions of its walk's difference.
  const auto timed = [&](int mode) {
    const auto t0 = Clock::now();
    walk(mode);
    return since(t0);
  };
  std::vector<double> place, eval, probe;
  for (int r = 0; r < kReps; ++r) {
    const double attach = timed(0);
    const double placed = timed(1);
    place.push_back(placed - attach);
    eval.push_back(timed(2) - placed);
    table.clear();
    probe.push_back(timed(3) - placed);
  }

  const double per_child = 1e9 / static_cast<double>(children);
  UnitCosts u;
  u.place_unplace_ns = median(place) * per_child;
  u.lb_eval_ns = median(eval) * per_child;
  u.tt_probe_ns = median(probe) * per_child;

  constexpr int kEntries = 4096;
  parabb::ActiveSet as(parabb::SelectRule::kLIFO, [](parabb::SlotRef) {});
  const double as_s = median_seconds([&] {
    std::int64_t acc = 0;
    for (int i = 0; i < kEntries; ++i) {
      as.push({i % 97, static_cast<std::uint32_t>(i),
               {static_cast<std::uint32_t>(i), 0}});
    }
    while (!as.empty()) acc += as.pop().lb;
    g_sink = g_sink + acc;
  });
  u.activeset_ns = as_s * 1e9 / kEntries;
  return u;
}

void accumulate(parabb::SearchStats& total, const parabb::SearchStats& s) {
  total.expanded += s.expanded;
  total.generated += s.generated;
  total.activated += s.activated;
  total.pruned_children += s.pruned_children;
  total.pruned_active += s.pruned_active;
  total.steals_attempted += s.steals_attempted;
  total.steals_succeeded += s.steals_succeeded;
  total.peak_active = std::max(total.peak_active, s.peak_active);
  total.peak_memory_bytes =
      std::max(total.peak_memory_bytes, s.peak_memory_bytes);
  total.seconds += s.seconds;
}

void set_bnb_metrics(const parabb::SearchStats& total, const UnitCosts& u,
                     Metrics& m) {
  const auto gen = static_cast<double>(total.generated);
  const double secs = total.seconds > 0 ? total.seconds : 1e-9;
  m.set("bnb.expanded", static_cast<double>(total.expanded), "count");
  m.set("bnb.generated", gen, "count");
  m.set("bnb.pruned_frac",
        gen > 0 ? static_cast<double>(total.pruned_children) / gen : 0.0,
        "fraction");
  m.set("bnb.peak_active", static_cast<double>(total.peak_active), "count");
  m.set("bnb.peak_memory_kb",
        static_cast<double>(total.peak_memory_bytes) / 1024.0, "kB");
  m.set("bnb.expanded_per_s", static_cast<double>(total.expanded) / secs,
        "1/s");
  m.set("bnb.lb_eval_ns", u.lb_eval_ns, "ns");
  m.set("bnb.place_unplace_ns", u.place_unplace_ns, "ns");
  m.set("bnb.activeset_ns", u.activeset_ns, "ns");
  m.set("bnb.tt_probe_ns", u.tt_probe_ns, "ns");
  m.set("bnb.lb_share", gen * u.lb_eval_ns * 1e-9 / secs, "fraction");
  m.set("bnb.place_unplace_share", gen * u.place_unplace_ns * 1e-9 / secs,
        "fraction");
  m.set("bnb.activeset_share",
        static_cast<double>(total.activated) * u.activeset_ns * 1e-9 / secs,
        "fraction");
}

}  // namespace perfbench
