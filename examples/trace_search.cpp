// Watching the branch-and-bound search unfold.
//
// Attaches a flight recorder (obs/recorder.hpp) to a small optimal search
// and summarizes the event stream: the dive profile (expansions per level), the incumbent
// trajectory, and where pruning concentrated. A compact way to *see* why
// LIFO works: goals appear almost immediately and the incumbent rachets
// down within the first few hundred events.
//
//   $ ./trace_search [--procs 2] [--tail 25]
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/obs/observe.hpp"
#include "parabb/obs/recorder.hpp"
#include "parabb/support/cli.hpp"
#include "parabb/support/table.hpp"
#include "parabb/workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace parabb;

  ArgParser parser("trace_search", "Visualize a B&B search event stream");
  parser.add_option("procs", "processor count", "2");
  parser.add_option("seed", "workload seed", "7");
  parser.add_option("tail", "final trace events to print verbatim", "25");
  if (!parser.parse(argc, argv)) return 0;

  GeneratedGraph gen = generate_graph(
      paper_config(), static_cast<std::uint64_t>(parser.get_int("seed")));
  SlicingConfig tight;
  tight.base = LaxityBase::kPathWork;
  tight.laxity = 1.2;
  assign_deadlines_slicing(gen.graph, tight);
  const SchedContext ctx(
      gen.graph,
      make_shared_bus_machine(static_cast<int>(parser.get_int("procs"))));

  // The sequential engine records into channel 0; a ring this large keeps
  // every event of the search.
  FlightRecorder recorder(std::size_t{1} << 22);
  Observation observe;
  observe.recorder = &recorder;
  Params params;
  params.observe = &observe;
  const SearchResult r = solve_bnb(ctx, params);
  const FlightChannel& events = recorder.channel(0);
  if (events.dropped() > 0) {
    std::printf("(the ring dropped the oldest %llu events; the summaries "
                "below cover the rest)\n",
                static_cast<unsigned long long>(events.dropped()));
  }

  std::printf("instance: %d tasks on %d processors; optimal lateness %lld "
              "(%s), %llu events recorded\n\n",
              ctx.task_count(), ctx.proc_count(),
              static_cast<long long>(r.best_cost),
              r.proved ? "proved" : "unproved",
              static_cast<unsigned long long>(events.total()));

  // Dive profile: expansions per level.
  std::array<std::uint64_t, kMaxTasks + 1> expands_per_level{};
  std::vector<std::pair<std::uint64_t, Time>> incumbents;
  std::uint64_t prunes = 0;
  const std::vector<FlightEvent> log = events.chronological();
  for (const FlightEvent& e : log) {
    switch (e.kind) {
      case FlightEventKind::kExpand:
        ++expands_per_level[static_cast<std::size_t>(e.level)];
        break;
      case FlightEventKind::kIncumbent:
        incumbents.emplace_back(e.seq, e.value);
        break;
      case FlightEventKind::kPrune:
        if (e.level >= 0) ++prunes;  // level -1: active-set removals
        break;
      default:
        break;
    }
  }

  std::printf("expansions by search-tree level (dive profile):\n");
  for (int lvl = 0; lvl <= ctx.task_count(); ++lvl) {
    const std::uint64_t c = expands_per_level[static_cast<std::size_t>(lvl)];
    if (c == 0) continue;
    std::printf("  level %2d  %8llu  ", lvl,
                static_cast<unsigned long long>(c));
    const int bar = static_cast<int>(
        std::min<std::uint64_t>(50, c * 50 /
                                        std::max<std::uint64_t>(
                                            1, r.stats.expanded)));
    for (int i = 0; i < bar; ++i) std::printf("#");
    std::printf("\n");
  }

  std::printf("\nincumbent trajectory (event index -> cost):\n");
  if (incumbents.empty()) {
    std::printf("  (the EDF seed was already optimal)\n");
  }
  for (const auto& [idx, cost] : incumbents) {
    std::printf("  @%-10llu %lld\n", static_cast<unsigned long long>(idx),
                static_cast<long long>(cost));
  }
  std::printf("\nchildren pruned before activation: %llu of %llu generated "
              "(%.1f%%)\n",
              static_cast<unsigned long long>(prunes),
              static_cast<unsigned long long>(r.stats.generated),
              r.stats.generated
                  ? 100.0 * static_cast<double>(prunes) /
                        static_cast<double>(r.stats.generated)
                  : 0.0);

  const auto tail = static_cast<std::size_t>(parser.get_int("tail"));
  std::printf("\nlast %zu events:\n", std::min(tail, log.size()));
  for (std::size_t i = log.size() > tail ? log.size() - tail : 0;
       i < log.size(); ++i) {
    const FlightEvent& e = log[i];
    const std::string what =
        e.kind == FlightEventKind::kPrune
            ? to_string(e.kind) + "/" + to_string(e.rule)
            : to_string(e.kind);
    std::printf("  #%-8llu %-18s level=%-3d value=%lld\n",
                static_cast<unsigned long long>(e.seq), what.c_str(),
                e.level, static_cast<long long>(e.value));
  }
  return 0;
}
