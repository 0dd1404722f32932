// Lower-bound cost functions L (paper §3.5).
//
// Each returns a provable lower bound L̂ on the maximum task lateness of any
// complete schedule reachable from the given partial schedule under the
// scheduling operation of §4.3:
//
//  * LB0 — recursive estimated finish times driven only by arrival times and
//    predecessor estimates (communication costs are optimistically zero,
//    which keeps the bound admissible since co-located tasks pay none):
//        f̂_i = f_i                                    if scheduled
//        f̂_i = max(a_i + c_i,
//                   max_{j ≺· i} (max(f̂_j, a_i) + c_i)) otherwise
//
//  * LB1 — LB0 with the adaptive processor-contention term l_min, the
//    earliest time any processor becomes free; no unscheduled task can
//    start before it under the append-only operation:
//        f̂_i = max(max(a_i, l_min) + c_i,
//                   max_{j ≺· i} (max(f̂_j, a_i, l_min) + c_i))
//
//  * LB2 (extension) — max(LB1, workload packing bound): for each absolute
//    deadline D, the unscheduled work W_D with deadlines <= D cannot finish
//    before ceil((Σ_q avail_q + W_D)/m), so some task is at least that far
//    past D.
//
// In all cases  L̂ = max_i (f̂_i − D_i).  On a complete schedule every f̂
// equals the real finish time, so L̂ is the exact cost of a goal vertex.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "parabb/bnb/params.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/sched/partial_schedule.hpp"
#include "parabb/support/assert.hpp"

namespace parabb {

/// Evaluates lower bound `kind` for `ps` from scratch. O(n + e) for
/// LB0/LB1; O(n log n + e) for LB2. This is the reference implementation:
/// the engines evaluate children through IncrementalLB below, and the
/// differential suite (tests/test_lower_bound_incremental.cpp) pins the two
/// to each other on every state it can generate.
Time lower_bound_cost(const SchedContext& ctx, const PartialSchedule& ps,
                      LowerBound kind);

/// The exact maximum lateness of a complete schedule (all f̂ = f).
/// Convenience wrapper asserting completeness.
Time exact_cost(const SchedContext& ctx, const PartialSchedule& ps);

/// Incremental bound evaluator: a scratch context that rides along a
/// place()/unplace() walk so per-child evaluation touches only what the
/// placement changed instead of re-deriving everything from scratch.
///
/// What it maintains across place()/unplace() (invariants, each restored
/// exactly by unplace because the scheduling operation is reversible):
///  * `avail_sum`   = Σ_q proc_avail(q)   — LB2's packing numerator;
///  * `unsched_work`= Σ exec over unscheduled tasks;
///  * `worst_sched` = max lateness over the scheduled prefix (monotone
///    under place, so one saved value per nesting level undoes it);
///  * the placed processor's previous frontier, saved per nesting level
///    beside `worst_sched`, so PartialSchedule::unplace restores it in O(1);
///  * unscheduled-membership bitmasks in topo-rank and deadline-rank
///    space, so both evaluation loops visit unscheduled tasks only, in
///    the right order, with no sort and no branch per skipped task;
///  * f̂ of every *scheduled* task (its exact finish time).
///
/// evaluate() then costs O(U + E_U) for LB0/LB1 and O(U + E_U + U) for LB2
/// — U = unscheduled tasks, E_U = their incoming arcs — instead of the
/// from-scratch O(n + e + n log n), and it short-circuits as soon as its
/// running maximum proves the final bound cannot stay below `cutoff`.
class IncrementalLB {
 public:
  explicit IncrementalLB(const SchedContext& ctx) noexcept : ctx_(&ctx) {}

  /// Rebinds the scratch to `ps` in O(n + m), touching each task once.
  /// Call whenever the state is replaced wholesale; place()/unplace() keep
  /// the terms synchronized from then on, so a place() that is never
  /// undone leaves the scratch exactly as attach() on the child would (the
  /// sequential engine's in-hand dive expands that child without
  /// re-attaching).
  void attach(const PartialSchedule& ps) noexcept;

  /// Applies ps.place(t, p) and updates every incremental term.
  /// Returns the assigned start time.
  CTime place(PartialSchedule& ps, TaskId t, ProcId p) noexcept;

  /// Reverts the most recent not-yet-reverted place() (LIFO nesting, same
  /// discipline PartialSchedule::unplace already requires) in O(1).
  void unplace(PartialSchedule& ps, TaskId t) noexcept;

  /// Lower bound of the attached state. When the result is < cutoff it is
  /// the exact bound (== lower_bound_cost). Otherwise it is some value v
  /// with cutoff <= v <= exact bound — enough to decide every
  /// `bound >= threshold` prune identically to the exact evaluation, which
  /// is the only way the engines consume bounds at or above the threshold.
  Time evaluate(const PartialSchedule& ps, LowerBound kind,
                Time cutoff = kTimeInf) noexcept;

 private:
  static_assert(kMaxTasks <= 64, "rank bitmasks are one 64-bit word");

  const SchedContext* ctx_;
  Time avail_sum_ = 0;              ///< Σ_q proc_avail(q)
  Time unsched_work_ = 0;           ///< Σ exec over unscheduled tasks
  Time worst_sched_ = kTimeNegInf;  ///< max lateness of the scheduled prefix
  std::uint64_t unsched_topo_ = 0;  ///< unscheduled set, bit = topo rank
  std::uint64_t unsched_dl_ = 0;    ///< unscheduled set, bit = deadline rank
  int depth_ = 0;                   ///< place() nesting level
  std::array<Time, kMaxTasks> fhat_{};  ///< f̂; exact finish when scheduled
  /// What place() overwrites and cannot recompute cheaply, per level.
  struct Undo {
    Time worst_sched;  ///< worst_sched_ before the placement
    CTime frontier;    ///< proc_avail of the placed processor before it
    TaskId task;       ///< the placed task (checks the LIFO discipline)
  };
  std::array<Undo, kMaxTasks + 1> undo_{};
};

// place / unplace / evaluate run once per generated child in both engines;
// they are defined here so every caller inlines them.

inline CTime IncrementalLB::place(PartialSchedule& ps, TaskId t,
                                 ProcId p) noexcept {
  const SchedContext& ctx = *ctx_;
  const CTime before = ps.proc_avail(p);
  const CTime s = ps.place(ctx, t, p);
  const CTime f = s + ctx.exec(t);
  avail_sum_ += Time{f} - Time{before};
  unsched_work_ -= Time{ctx.exec(t)};
  unsched_topo_ &= ~(1ULL << ctx.topo_rank(t));
  unsched_dl_ &= ~(1ULL << ctx.deadline_rank(t));
  fhat_[static_cast<std::size_t>(t)] = Time{f};
  PARABB_ASSERT(depth_ <= kMaxTasks);
  undo_[static_cast<std::size_t>(depth_++)] = Undo{worst_sched_, before, t};
  worst_sched_ = std::max(worst_sched_, Time{f} - Time{ctx.deadline(t)});
  return s;
}

inline void IncrementalLB::unplace(PartialSchedule& ps, TaskId t) noexcept {
  const SchedContext& ctx = *ctx_;
  PARABB_ASSERT(depth_ > 0);
  const Undo& undo = undo_[static_cast<std::size_t>(--depth_)];
  PARABB_ASSERT(undo.task == t);
  const CTime finish = ps.proc_avail(ps.proc(t));
  ps.unplace(ctx, t, undo.frontier);
  avail_sum_ -= Time{finish} - Time{undo.frontier};
  unsched_work_ += Time{ctx.exec(t)};
  unsched_topo_ |= 1ULL << ctx.topo_rank(t);
  unsched_dl_ |= 1ULL << ctx.deadline_rank(t);
  worst_sched_ = undo.worst_sched;
}

inline Time IncrementalLB::evaluate(const PartialSchedule& ps,
                                    LowerBound kind, Time cutoff) noexcept {
  const SchedContext& ctx = *ctx_;
  // Seeding with exact floors (the scheduled prefix and the static
  // a+c−D floor, both <= every f̂−D they cover) cannot change the final
  // maximum — it only lets the cutoff fire before any work happens.
  Time worst = std::max(worst_sched_, ctx.static_lateness_floor());
  if (worst >= cutoff) return worst;

  const bool contention = kind != LowerBound::kLB0;
  const Time lmin = contention ? Time{ps.min_proc_avail(ctx)} : 0;
  const auto order = ctx.topo_order();
  for (std::uint64_t rest = unsched_topo_; rest != 0; rest &= rest - 1) {
    const TaskId t = order[static_cast<std::size_t>(std::countr_zero(rest))];
    const Time a = Time{ctx.arrival(t)};
    Time start_floor = contention ? std::max(a, lmin) : a;
    const auto preds = ctx.pred_ids(t);
    for (std::size_t k = 0; k < preds.size(); ++k) {
      start_floor = std::max(
          start_floor, fhat_[static_cast<std::size_t>(preds[k])]);
    }
    const Time f = start_floor + Time{ctx.exec(t)};
    fhat_[static_cast<std::size_t>(t)] = f;
    worst = std::max(worst, f - Time{ctx.deadline(t)});
    if (worst >= cutoff) return worst;
  }

  if (kind == LowerBound::kLB2 && unsched_dl_ != 0) {
    const Time m = ctx.proc_count();
    // No candidate at deadline rank >= r can exceed cap − d_r (its work
    // term is <= unsched_work_ and deadlines are nondecreasing in rank),
    // so once cap − d_r <= worst the remaining suffix is settled exactly.
    const Time cap = (avail_sum_ + unsched_work_ + m - 1) / m;
    Time work = 0;
    for (std::uint64_t rest = unsched_dl_; rest != 0; rest &= rest - 1) {
      const int r = std::countr_zero(rest);
      const Time d = Time{ctx.deadline_at_rank(r)};
      if (cap - d <= worst) break;
      work += Time{ctx.exec_at_deadline_rank(r)};
      const Time completion = (avail_sum_ + work + m - 1) / m;
      worst = std::max(worst, completion - d);
      if (worst >= cutoff) return worst;
    }
  }
  return worst;
}

}  // namespace parabb
