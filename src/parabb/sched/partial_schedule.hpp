// PartialSchedule: the branch-and-bound search state — a prefix of a
// schedule built by the paper's non-preemptive scheduling operation (§4.3).
//
// The scheduling operation: a new task starts at the earliest time that is
//  * >= its arrival time a_i,
//  * >= the finish of every already-scheduled direct predecessor, plus the
//    nominal communication delay when the predecessor sits on a different
//    processor, and
//  * >= the finish of every task previously scheduled on the chosen
//    processor (append-only; idle gaps are never back-filled, which is what
//    makes the operation non-commutative and the full permutation search
//    necessary).
//
// The type is a trivially-copyable fixed-capacity value (224 bytes; pinned
// by a static_assert in bnb/transposition.hpp) so that millions of search
// vertices stay pool-friendly and memcpy-cheap.
//
// The per-child kernel (earliest_start, place, unplace, min_proc_avail,
// placement_key) is defined inline below: both engines call it for every
// generated child, and the build does not rely on link-time optimization
// to inline across translation units.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "parabb/sched/context.hpp"
#include "parabb/support/bitset64.hpp"
#include "parabb/support/hash.hpp"

namespace parabb {

namespace detail {
// One key per (task, processor) cell; the dynamic start time is folded in
// through mix64 so equal (task, proc) placements at different times get
// unrelated keys.
inline constexpr auto kPlacementKeys =
    zobrist_keys<static_cast<std::size_t>(kMaxTasks) * kMaxProcs>(
        0x7ab5a1c0ffee5eedULL);
}  // namespace detail

class PartialSchedule {
 public:
  PartialSchedule() = default;

  /// The empty schedule for `ctx` (level 0: nothing placed, inputs ready).
  static PartialSchedule empty(const SchedContext& ctx);

  int count() const noexcept { return count_; }
  TaskSet scheduled() const noexcept { return scheduled_; }
  /// Tasks whose predecessors are all scheduled but which are not yet
  /// scheduled themselves.
  TaskSet ready() const noexcept { return ready_; }
  bool complete(const SchedContext& ctx) const noexcept {
    return count_ == ctx.task_count();
  }

  CTime start(TaskId t) const noexcept {
    PARABB_ASSERT(scheduled_.contains(t));
    return start_[static_cast<std::size_t>(t)];
  }
  CTime finish(const SchedContext& ctx, TaskId t) const noexcept {
    return start(t) + ctx.exec(t);
  }
  ProcId proc(TaskId t) const noexcept {
    PARABB_ASSERT(scheduled_.contains(t));
    return proc_[static_cast<std::size_t>(t)];
  }

  /// First idle time of processor p (finish of its last appended task).
  CTime proc_avail(ProcId p) const noexcept {
    PARABB_ASSERT(p >= 0 && p < kMaxProcs);
    return avail_[static_cast<std::size_t>(p)];
  }

  /// l_min: the earliest time at which any new task could start on any
  /// processor — the adaptive term of the LB1 lower bound.
  CTime min_proc_avail(const SchedContext& ctx) const noexcept;

  /// Start time the scheduling operation would give task t on processor p.
  /// Requires every direct predecessor of t to be scheduled.
  CTime earliest_start(const SchedContext& ctx, TaskId t,
                       ProcId p) const noexcept;

  /// Applies the scheduling operation: places ready task t on processor p.
  /// Returns the assigned start time. Updates the ready set.
  CTime place(const SchedContext& ctx, TaskId t, ProcId p) noexcept;

  /// Undoes a placement in O(1). Only legal when the scheduling operation
  /// is still reversible: t must be the last task appended to its
  /// processor and no successor of t may be scheduled (both asserted).
  /// `restored_frontier` is proc_avail(proc(t)) as it was just before the
  /// matching place() — the caller's undo record; a processor's frontier
  /// cannot be recomputed from the placement set without a scan. Restores
  /// the ready set, the processor frontier, and the incremental
  /// fingerprint.
  void unplace(const SchedContext& ctx, TaskId t,
               CTime restored_frontier) noexcept;

  /// Canonical 64-bit state fingerprint: XOR over every scheduled task of
  /// a Zobrist-style key derived from (task, processor, start time).
  /// Maintained incrementally by place()/unplace(); equal states always
  /// have equal fingerprints, and because the scheduling operation fully
  /// determines the frontier from the placement set, unequal fingerprints
  /// only collide with ~2^-64 probability (the transposition table falls
  /// back to operator== on fingerprint matches regardless).
  std::uint64_t fingerprint() const noexcept { return hash_; }

  /// Fingerprint recomputed from scratch over the scheduled set; must
  /// always equal fingerprint() (property-tested).
  std::uint64_t fingerprint_from_scratch() const noexcept;

  /// The Zobrist-style key one placement contributes to the fingerprint.
  static std::uint64_t placement_key(TaskId t, ProcId p,
                                     CTime start) noexcept;

  /// Max lateness over the *scheduled* prefix (kTimeNegInf when empty).
  Time max_lateness_scheduled(const SchedContext& ctx) const noexcept;

  friend bool operator==(const PartialSchedule& a,
                         const PartialSchedule& b) noexcept;

 private:
  TaskSet scheduled_{};
  TaskSet ready_{};
  std::array<CTime, kMaxTasks> start_{};
  std::array<CTime, kMaxProcs> avail_{};
  std::array<std::int8_t, kMaxTasks> proc_{};
  std::int16_t count_ = 0;
  std::uint64_t hash_ = 0;  ///< incremental Zobrist fingerprint
};

inline CTime PartialSchedule::min_proc_avail(
    const SchedContext& ctx) const noexcept {
  CTime lo = avail_[0];
  for (ProcId p = 1; p < ctx.proc_count(); ++p) {
    lo = std::min(lo, avail_[static_cast<std::size_t>(p)]);
  }
  return lo;
}

inline CTime PartialSchedule::earliest_start(const SchedContext& ctx,
                                             TaskId t,
                                             ProcId p) const noexcept {
  PARABB_ASSERT(p >= 0 && p < ctx.proc_count());
  CTime est = std::max(ctx.arrival(t), avail_[static_cast<std::size_t>(p)]);
  const auto preds = ctx.pred_ids(t);
  const auto comm = ctx.pred_comm(t);
  for (std::size_t k = 0; k < preds.size(); ++k) {
    const TaskId j = preds[k];
    PARABB_ASSERT(scheduled_.contains(j));
    const auto uj = static_cast<std::size_t>(j);
    // hop(p, p) == 0, so co-located predecessors add no delay.
    const CTime avail_time = start_[uj] + ctx.exec(j) +
                             comm[k] * ctx.hop(proc_[uj], p);
    est = std::max(est, avail_time);
  }
  return est;
}

inline CTime PartialSchedule::place(const SchedContext& ctx, TaskId t,
                                    ProcId p) noexcept {
  PARABB_ASSERT(ready_.contains(t));
  const CTime s = earliest_start(ctx, t, p);
  const auto ut = static_cast<std::size_t>(t);
  start_[ut] = s;
  proc_[ut] = static_cast<std::int8_t>(p);
  avail_[static_cast<std::size_t>(p)] = s + ctx.exec(t);
  scheduled_.insert(t);
  ready_.erase(t);
  ++count_;
  // A successor becomes ready once its whole predecessor set is scheduled;
  // none of t's successors can be scheduled yet, so no other test is needed.
  std::uint64_t freed = 0;
  for (const TaskId succ : ctx.succ_mask(t)) {
    freed |= std::uint64_t{ctx.pred_mask(succ).is_subset_of(scheduled_)}
             << succ;
  }
  ready_ = ready_ | TaskSet(freed);
  hash_ ^= placement_key(t, p, s);
  return s;
}

inline void PartialSchedule::unplace(const SchedContext& ctx, TaskId t,
                                     CTime restored_frontier) noexcept {
  PARABB_ASSERT(scheduled_.contains(t));
  const auto ut = static_cast<std::size_t>(t);
  const ProcId p = proc_[ut];
  const auto up = static_cast<std::size_t>(p);
  // Reversibility: t is the frontier task of its processor (append-only
  // operation, so only the last appended task can be peeled off) and none
  // of its successors has been scheduled on the strength of it.
  PARABB_ASSERT(avail_[up] == start_[ut] + ctx.exec(t));
  PARABB_ASSERT(restored_frontier <= start_[ut]);
  const TaskSet succs = ctx.succ_mask(t);
  PARABB_ASSERT(!succs.intersects(scheduled_));
  hash_ ^= placement_key(t, p, start_[ut]);
  scheduled_.erase(t);
  // Every ready successor was readied by t's placement (t was among its
  // predecessors), so all of them lose readiness again.
  ready_ = ready_ - succs;
  ready_.insert(t);
  --count_;
  avail_[up] = restored_frontier;
}

inline std::uint64_t PartialSchedule::placement_key(TaskId t, ProcId p,
                                                    CTime start) noexcept {
  const std::size_t cell = static_cast<std::size_t>(t) *
                               static_cast<std::size_t>(kMaxProcs) +
                           static_cast<std::size_t>(p);
  return mix64(detail::kPlacementKeys[cell] ^
               static_cast<std::uint64_t>(static_cast<std::uint32_t>(start)));
}

}  // namespace parabb
