// Unit costs of the B&B primitives, timed through their public interfaces
// on partial schedules sampled from a workload's own instances. Traced runs
// multiply them by the exact SearchStats counts to attribute search time
// (bnb.lb_share and friends are therefore computed, not measured).
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/sched/context.hpp"

namespace perfbench {

struct UnitCosts {
  double place_unplace_ns = 0;  ///< IncrementalLB place + unplace, one child
  double lb_eval_ns = 0;        ///< IncrementalLB::evaluate, one child
  double activeset_ns = 0;      ///< ActiveSet (LIFO) push + pop, one vertex
  double tt_probe_ns = 0;       ///< TranspositionTable::seen_or_insert
};

/// Samples about 3000 partial schedules from the searches the engine runs
/// on `ctxs` and times each primitive over every child of every sampled
/// state (median of several repetitions).
UnitCosts measure_unit_costs(
    const std::vector<const parabb::SchedContext*>& ctxs,
    parabb::LowerBound kind, std::uint64_t seed);

/// Sums the counters of a suite's searches (peaks take the maximum).
void accumulate(parabb::SearchStats& total, const parabb::SearchStats& s);

/// Sets the bnb.* count, rate, unit-cost and computed-share metrics.
void set_bnb_metrics(const parabb::SearchStats& total, const UnitCosts& u,
                     Metrics& m);

}  // namespace perfbench
