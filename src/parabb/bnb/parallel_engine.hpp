// Parallel branch-and-bound (extension; DESIGN.md item 8).
//
// Workers share one search semantics with the sequential engine (same
// bounds, same pruning) plus a shared atomic incumbent and a shared
// lock-striped transposition table. Scheduling is decentralized work
// stealing: each worker owns a Chase-Lev deque (support/ws_deque.hpp). The
// owner pushes and pops children at the bottom (sorted-LIFO dive,
// depth-first locality); idle workers steal batches from the top of
// randomly chosen victims (oldest = shallowest vertices, whose subtrees
// amortize the steal). Vertices live in per-worker slab pools, so neither
// allocation nor scheduling ever takes a global lock on the hot path.
// Termination is detected by an idle-worker counter: a worker is counted
// idle only while it holds no vertex, and the search ends when a sweep of
// every deque finds them empty AND the counter — re-read after the sweep
// and after a final stop-flag check — equals the worker count.
// docs/algorithm.md ("Parallel search: work stealing") has the memory-order
// and termination arguments.
//
// The search starts from a breadth-first *seeding* phase that expands the
// root until there is at least one frontier vertex per worker. The returned
// cost is identical to the sequential engine's; the number of searched
// vertices varies run-to-run because incumbent improvements propagate
// asynchronously. Cancellation is polled per
// expanded vertex and the time limit by a supervisor thread. The generated
// budget is counted per worker and checked per expanded vertex: against a
// chunked shared total while the cap is far, against the exact sum of the
// workers' counts near it. A budget stop never fires below the cap and
// overshoots it by at most one expansion per worker (docs/algorithm.md,
// "Shared counters and the generated budget").
#pragma once

#include <cstdint>

#include "parabb/bnb/engine.hpp"

namespace parabb {

/// How the parallel engine distributes vertices among workers. Work
/// stealing is the only scheduler; the enum remains so callers that name
/// it explicitly keep compiling.
enum class ParallelScheduler : std::uint8_t {
  kWorkStealing,  ///< per-worker Chase-Lev deques, batched steals
};

struct ParallelParams {
  /// Base 9-tuple. `select` is ignored (always LIFO dives); `rb.max_active`
  /// and `rb.max_children` are ignored (no disposal in the parallel
  /// engine); `dominance` is ignored. BR, LB, branch rule, UB init, the
  /// time limit, `rb.max_memory_bytes` (summed worker slab bytes — the
  /// degradation-ladder signal and, past the last rung, the stop cliff;
  /// docs/robustness.md), `rb.max_generated` (summed across
  /// workers) and the `cancel` token apply. `transposition` is honored: one
  /// table is shared by every worker (lock-striped), so a state expanded by
  /// any thread is pruned as a duplicate everywhere else.
  Params base;
  int threads = 0;  ///< 0 = hardware concurrency
  /// Not read by the engine: work stealing is the only scheduler.
  ParallelScheduler scheduler = ParallelScheduler::kWorkStealing;
  /// Cap on the vertices one steal may take.
  /// 0 = auto — half of the victim's visible deque (minimum 1), the
  /// textbook balance between handoff latency and steal amortization.
  int steal_batch = 0;
};

struct ParallelResult {
  bool found_solution = false;
  Schedule best;
  Time best_cost = kTimeInf;
  bool proved = false;
  TerminationReason reason = TerminationReason::kExhausted;
  SearchStats stats;  ///< merged across workers (peaks are approximate sums)
  int threads_used = 0;
};

ParallelResult solve_bnb_parallel(const SchedContext& ctx,
                                  const ParallelParams& params);

}  // namespace parabb
