// The sequential engine's flight-recorder event stream must tell the same
// story as its counters. With a ring large enough to drop nothing, the
// events of one search are checked against its SearchStats:
//
//   * one kExpand per expanded vertex;
//   * kIncumbent values strictly decrease, one per incumbent improvement,
//     and the last equals the returned cost;
//   * one kPrune with level >= 0 per pruned child (level -1 marks
//     active-set removals, which SearchStats counts separately).
//
// test_cross_features repeats the prune check with BR and dominance
// kills; ring mechanics (wraparound, ordering) are covered by test_obs.
#include <gtest/gtest.h>

#include "parabb/bnb/engine.hpp"
#include "parabb/obs/observe.hpp"
#include "parabb/obs/recorder.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

TEST(FlightStream, SequentialEngineEmitsCoherentEventStream) {
  const TaskGraph g = test::tight_instance(3);
  const SchedContext ctx = test::make_ctx(g, 2);
  FlightRecorder rec(std::size_t{1} << 12);  // ~1000 events on this search
  Observation ob;
  ob.recorder = &rec;
  Params p;
  p.ub = UpperBoundInit::kInfinite;  // the search finds every incumbent
  p.observe = &ob;
  const SearchResult r = solve_bnb(ctx, p);
  ASSERT_TRUE(r.proved);
  const FlightChannel& ch = rec.channel(0);
  ASSERT_EQ(ch.dropped(), 0u) << "ring too small for this search";

  std::uint64_t expands = 0, child_prunes = 0, incumbents = 0;
  Time last_incumbent = kTimeInf;
  for (const FlightEvent& e : ch.chronological()) {
    switch (e.kind) {
      case FlightEventKind::kExpand: ++expands; break;
      case FlightEventKind::kPrune:
        if (e.level >= 0) ++child_prunes;
        break;
      case FlightEventKind::kIncumbent:
        ++incumbents;
        EXPECT_EQ(e.level, ctx.task_count());
        // The incumbent strictly improves over time.
        EXPECT_LT(e.value, last_incumbent);
        last_incumbent = e.value;
        break;
      default: break;
    }
  }
  EXPECT_GT(expands, 0u);
  EXPECT_EQ(expands, r.stats.expanded);
  EXPECT_GT(incumbents, 1u);
  EXPECT_EQ(incumbents, r.stats.goal_updates);
  EXPECT_EQ(last_incumbent, r.best_cost);
  EXPECT_EQ(child_prunes, r.stats.pruned_children);
}

}  // namespace
}  // namespace parabb
