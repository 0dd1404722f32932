// The benchmark's correctness oracle. It trusts nothing the solver reports
// about a result: schedules are re-validated, lateness is recomputed from
// the schedule, costs are compared with checked-in expected costs, and
// certificates are re-checked by the independent verifier.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "parabb/platform/machine.hpp"
#include "parabb/sched/schedule.hpp"
#include "parabb/taskgraph/graph.hpp"

namespace perfbench {

/// Maximum lateness recomputed from the schedule: max over tasks of
/// finish - (phase + relative deadline).
parabb::Time lateness_of(const parabb::Schedule& s,
                         const parabb::TaskGraph& graph);

/// Empty when `s` is a structurally sound schedule of `graph` on `machine`
/// whose recomputed lateness equals `cost`; otherwise the reason.
std::string check_solution(const parabb::TaskGraph& graph,
                           const parabb::Machine& machine,
                           const parabb::Schedule& s, parabb::Time cost);

/// A checked-in result: the cost and whether the run proved it optimal.
struct Expected {
  parabb::Time cost = 0;
  bool proved = false;
};

/// Empty when (cost, proved) is consistent with `e`: two proved costs are
/// equal, a proved cost never exceeds a feasible one, and a feasible
/// (budget-capped) cost never beats a proved optimum.
std::string check_expected(parabb::Time cost, bool proved, const Expected& e);

/// Expected results in perfbench/data/expected/<workload>-<seed>.json, or an
/// empty list when that seed has none checked in (or they are being
/// written). tight-par needs none: its frozen pool records every optimum.
std::vector<Expected> load_expected(const Options& opt);
/// Prints expected results in the file format load_expected() reads.
void print_expected(const Options& opt, const std::vector<Expected>& items);

/// Empty when the certificate text parses against `graph` and the
/// independent verifier returns CERTIFIED for claimed cost `cost`.
std::string check_certificate(const parabb::TaskGraph& graph,
                              const parabb::Machine& machine,
                              const std::string& text, parabb::Time cost);

/// Shows that the oracle rejects a corrupted cost, schedule and
/// certificate (and accepts the uncorrupted originals). Returns the exit
/// code: 0 when every corruption was caught.
int selftest(const Options& opt);

}  // namespace perfbench
