#include "parabb/bnb/lower_bound.hpp"

#include <algorithm>
#include <array>

#include "parabb/support/assert.hpp"

namespace parabb {
namespace {

/// Workload packing term of LB2. Considers unscheduled tasks in increasing
/// absolute-deadline order; the prefix with deadlines <= D forms work W_D
/// that m processors, free no earlier than avail_q each, must complete.
Time packing_bound(const SchedContext& ctx, const PartialSchedule& ps) {
  const int n = ctx.task_count();
  const int m = ctx.proc_count();

  std::array<TaskId, kMaxTasks> order{};
  int k = 0;
  for (TaskId t = 0; t < n; ++t) {
    if (!ps.scheduled().contains(t)) order[static_cast<std::size_t>(k++)] = t;
  }
  if (k == 0) return kTimeNegInf;
  std::sort(order.begin(), order.begin() + k, [&](TaskId a, TaskId b) {
    return ctx.deadline(a) < ctx.deadline(b);
  });

  Time avail_sum = 0;
  for (ProcId p = 0; p < m; ++p) avail_sum += ps.proc_avail(p);

  Time bound = kTimeNegInf;
  Time work = 0;
  for (int i = 0; i < k; ++i) {
    const TaskId t = order[static_cast<std::size_t>(i)];
    work += ctx.exec(t);
    // Last deadline of a group of equal deadlines dominates; skipping the
    // inner ones is only an optimization, correctness holds either way.
    const Time d = ctx.deadline(t);
    const Time completion =
        (avail_sum + work + m - 1) / m;  // ceil; operands are non-negative
    bound = std::max(bound, completion - d);
  }
  return bound;
}

}  // namespace

Time lower_bound_cost(const SchedContext& ctx, const PartialSchedule& ps,
                      LowerBound kind) {
  const bool contention = kind != LowerBound::kLB0;
  const Time lmin = contention ? Time{ps.min_proc_avail(ctx)} : 0;

  std::array<Time, kMaxTasks> fhat{};
  Time worst = kTimeNegInf;

  for (const TaskId t : ctx.topo_order()) {
    const auto ut = static_cast<std::size_t>(t);
    Time f;
    if (ps.scheduled().contains(t)) {
      f = Time{ps.finish(ctx, t)};
    } else {
      const Time a = ctx.arrival(t);
      const Time c = ctx.exec(t);
      Time start_floor = contention ? std::max(a, lmin) : a;
      for (std::size_t idx = 0; idx < ctx.pred_ids(t).size(); ++idx) {
        const TaskId j = ctx.pred_ids(t)[idx];
        start_floor = std::max(start_floor,
                               fhat[static_cast<std::size_t>(j)]);
      }
      f = start_floor + c;
    }
    fhat[ut] = f;
    worst = std::max(worst, f - Time{ctx.deadline(t)});
  }

  if (kind == LowerBound::kLB2) {
    worst = std::max(worst, packing_bound(ctx, ps));
  }
  return worst;
}

Time exact_cost(const SchedContext& ctx, const PartialSchedule& ps) {
  PARABB_ASSERT(ps.complete(ctx));
  return ps.max_lateness_scheduled(ctx);
}

void IncrementalLB::attach(const PartialSchedule& ps) noexcept {
  const SchedContext& ctx = *ctx_;
  avail_sum_ = 0;
  for (ProcId p = 0; p < ctx.proc_count(); ++p) {
    avail_sum_ += Time{ps.proc_avail(p)};
  }
  const TaskSet scheduled = ps.scheduled();
  worst_sched_ = kTimeNegInf;
  unsched_work_ = ctx.total_work();
  for (const TaskId t : scheduled) {
    const Time f = Time{ps.finish(ctx, t)};
    fhat_[static_cast<std::size_t>(t)] = f;
    worst_sched_ = std::max(worst_sched_, f - Time{ctx.deadline(t)});
    unsched_work_ -= Time{ctx.exec(t)};
  }
  unsched_topo_ = 0;
  unsched_dl_ = 0;
  for (const TaskId t : ctx.all_tasks() - scheduled) {
    unsched_topo_ |= 1ULL << ctx.topo_rank(t);
    unsched_dl_ |= 1ULL << ctx.deadline_rank(t);
  }
  depth_ = 0;
}

}  // namespace parabb
