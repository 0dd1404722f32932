#include "parabb/sched/partial_schedule.hpp"

#include <algorithm>

namespace parabb {

PartialSchedule PartialSchedule::empty(const SchedContext& ctx) {
  PartialSchedule ps;
  ps.ready_ = ctx.initial_ready();
  return ps;
}

std::uint64_t PartialSchedule::fingerprint_from_scratch() const noexcept {
  std::uint64_t h = 0;
  for (const TaskId t : scheduled_) {
    const auto ut = static_cast<std::size_t>(t);
    h ^= placement_key(t, proc_[ut], start_[ut]);
  }
  return h;
}

Time PartialSchedule::max_lateness_scheduled(
    const SchedContext& ctx) const noexcept {
  Time worst = kTimeNegInf;
  for (const TaskId t : scheduled_) {
    const Time lateness = Time{finish(ctx, t)} - Time{ctx.deadline(t)};
    worst = std::max(worst, lateness);
  }
  return worst;
}

bool operator==(const PartialSchedule& a, const PartialSchedule& b) noexcept {
  if (a.scheduled_ != b.scheduled_ || a.count_ != b.count_) return false;
  for (const TaskId t : a.scheduled_) {
    const auto ut = static_cast<std::size_t>(t);
    if (a.start_[ut] != b.start_[ut] || a.proc_[ut] != b.proc_[ut])
      return false;
  }
  return a.avail_ == b.avail_;
}

}  // namespace parabb
