// Transposition-table suite: unit tests of the concurrent table itself,
// property tests of the incremental state fingerprint, and the
// differential harness — B&B with the table, B&B without it, and the
// exhaustive oracle must agree on the optimal maximum lateness on every
// seeded random instance.
#include "parabb/bnb/transposition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "parabb/bnb/brute_force.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/ckpt/snapshot.hpp"
#include "parabb/sched/validator.hpp"
#include "parabb/support/rng.hpp"
#include "parabb/verify/certificate.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

// ---------------------------------------------------------------------------
// Incremental fingerprint properties.
// ---------------------------------------------------------------------------

/// Random full placement walk; returns the (task, proc) decisions made.
std::vector<std::pair<TaskId, ProcId>> random_walk(const SchedContext& ctx,
                                                   PartialSchedule& ps,
                                                   Rng& rng) {
  std::vector<std::pair<TaskId, ProcId>> moves;
  while (!ps.complete(ctx)) {
    const TaskSet ready = ps.ready();
    auto pick = static_cast<int>(rng.index(
        static_cast<std::size_t>(ready.size())));
    TaskId t = kNoTask;
    for (const TaskId cand : ready) {
      if (pick-- == 0) {
        t = cand;
        break;
      }
    }
    const auto p = static_cast<ProcId>(rng.index(
        static_cast<std::size_t>(ctx.proc_count())));
    ps.place(ctx, t, p);
    moves.emplace_back(t, p);
  }
  return moves;
}

TEST(Fingerprint, IncrementalMatchesScratchAfterEveryExtendAndUndo) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const TaskGraph g = test::tiny_random(seed, 7, 3);
    const SchedContext ctx = test::make_ctx(g, 3);
    Rng rng(derive_seed(0x7a11, seed));

    PartialSchedule ps = PartialSchedule::empty(ctx);
    EXPECT_EQ(ps.fingerprint(), 0u);
    EXPECT_EQ(ps.fingerprint(), ps.fingerprint_from_scratch());

    std::vector<std::pair<TaskId, ProcId>> moves = random_walk(ctx, ps, rng);
    // Re-play to check after every extension (random_walk already placed),
    // saving each frontier the undo below must restore.
    PartialSchedule replay = PartialSchedule::empty(ctx);
    std::vector<CTime> frontiers;
    for (const auto& [t, p] : moves) {
      frontiers.push_back(replay.proc_avail(p));
      replay.place(ctx, t, p);
      EXPECT_EQ(replay.fingerprint(), replay.fingerprint_from_scratch());
      EXPECT_NE(replay.fingerprint(), 0u);
    }
    EXPECT_EQ(replay.fingerprint(), ps.fingerprint());

    // Undo in reverse order; the incremental hash must track exactly.
    for (std::size_t i = moves.size(); i-- > 0;) {
      ps.unplace(ctx, moves[i].first, frontiers[i]);
      EXPECT_EQ(ps.fingerprint(), ps.fingerprint_from_scratch());
    }
    EXPECT_EQ(ps.fingerprint(), 0u);
    EXPECT_TRUE(ps == PartialSchedule::empty(ctx));
  }
}

TEST(Fingerprint, CommutingPlacementsCollapseToOneState) {
  const TaskGraph g = test::independent_tasks(4);
  const SchedContext ctx = test::make_ctx(g, 2);

  PartialSchedule ab = PartialSchedule::empty(ctx);
  ab.place(ctx, 0, 0);
  ab.place(ctx, 1, 1);
  PartialSchedule ba = PartialSchedule::empty(ctx);
  ba.place(ctx, 1, 1);
  ba.place(ctx, 0, 0);

  EXPECT_TRUE(ab == ba);
  EXPECT_EQ(ab.fingerprint(), ba.fingerprint());

  // Same tasks, same processors, opposite assignment: different state,
  // and (with overwhelming probability) a different fingerprint.
  PartialSchedule swapped = PartialSchedule::empty(ctx);
  swapped.place(ctx, 0, 1);
  swapped.place(ctx, 1, 0);
  EXPECT_FALSE(ab == swapped);
  EXPECT_NE(ab.fingerprint(), swapped.fingerprint());
}

TEST(Fingerprint, UnplaceRestoresReadySetAndFrontier) {
  const TaskGraph g = test::small_diamond();
  const SchedContext ctx = test::make_ctx(g, 2);

  PartialSchedule ps = PartialSchedule::empty(ctx);
  const PartialSchedule before = ps;
  ps.place(ctx, 0, 0);  // "a" unlocks b and c
  EXPECT_NE(ps.ready().bits(), before.ready().bits());
  ps.unplace(ctx, 0, before.proc_avail(0));
  EXPECT_TRUE(ps == before);
  EXPECT_EQ(ps.ready().bits(), before.ready().bits());
  EXPECT_EQ(ps.fingerprint(), 0u);
}

// ---------------------------------------------------------------------------
// Table unit tests.
// ---------------------------------------------------------------------------

TranspositionConfig tiny_config(std::size_t cap_bytes = 1 << 16,
                                int shards = 2) {
  TranspositionConfig cfg;
  cfg.enabled = true;
  cfg.memory_cap_bytes = cap_bytes;
  cfg.shards = shards;
  return cfg;
}

PartialSchedule one_move_state(const SchedContext& ctx, TaskId t, ProcId p) {
  PartialSchedule ps = PartialSchedule::empty(ctx);
  ps.place(ctx, t, p);
  return ps;
}

TEST(TranspositionTable, SecondVisitOfEqualStateIsAHit) {
  const TaskGraph g = test::independent_tasks(4);
  const SchedContext ctx = test::make_ctx(g, 2);
  TranspositionTable tt(tiny_config());

  const PartialSchedule s = one_move_state(ctx, 0, 0);
  EXPECT_FALSE(tt.seen_or_insert(s, 10));
  EXPECT_TRUE(tt.seen_or_insert(s, 10));   // equal bound: prune
  EXPECT_TRUE(tt.seen_or_insert(s, 12));   // worse bound: prune
  EXPECT_FALSE(tt.seen_or_insert(s, 7));   // better bound: re-admit once
  EXPECT_TRUE(tt.seen_or_insert(s, 7));    // now recorded at 7

  const TranspositionCounters c = tt.counters();
  EXPECT_EQ(c.hits, 3u);
  EXPECT_EQ(c.probes, 5u);
  EXPECT_EQ(c.hits + c.misses, c.probes);
  EXPECT_EQ(tt.size(), 1u);
}

TEST(TranspositionTable, EqualFingerprintUnequalStateFallsBackToEquality) {
  const TaskGraph g = test::independent_tasks(4);
  const SchedContext ctx = test::make_ctx(g, 2);
  TranspositionTable tt(tiny_config());

  const PartialSchedule a = one_move_state(ctx, 0, 0);
  const PartialSchedule b = one_move_state(ctx, 1, 1);
  ASSERT_FALSE(a == b);

  // Force both states onto the same fingerprint (and thus shard+bucket).
  const std::uint64_t fp = 0xdeadbeefcafef00dULL;
  EXPECT_FALSE(tt.seen_or_insert(fp, a, 5));
  // b collides but is not equal to a: must NOT be treated as a duplicate.
  EXPECT_FALSE(tt.seen_or_insert(fp, b, 5));
  EXPECT_GE(tt.counters().collisions, 1u);
  // Both are now recorded; re-probes hit their own entries.
  EXPECT_TRUE(tt.seen_or_insert(fp, a, 5));
  EXPECT_TRUE(tt.seen_or_insert(fp, b, 5));
  EXPECT_EQ(tt.size(), 2u);
}

TEST(TranspositionTable, ZeroFingerprintIsHandled) {
  const TaskGraph g = test::independent_tasks(2);
  const SchedContext ctx = test::make_ctx(g, 2);
  TranspositionTable tt(tiny_config());
  const PartialSchedule s = one_move_state(ctx, 0, 0);
  EXPECT_FALSE(tt.seen_or_insert(std::uint64_t{0}, s, 1));
  EXPECT_TRUE(tt.seen_or_insert(std::uint64_t{0}, s, 1));
}

TEST(TranspositionTable, MemoryStaysBoundedUnderEvictionPressure) {
  const TaskGraph g = test::independent_tasks(8);
  const SchedContext ctx = test::make_ctx(g, 2);
  // Smallest possible table: one shard, one bucket of 8 slots.
  TranspositionTable tt(tiny_config(/*cap_bytes=*/1, /*shards=*/1));
  ASSERT_EQ(tt.capacity(), 8u);

  Rng rng(0xca9);
  int admitted = 0;
  for (int round = 0; round < 64; ++round) {
    PartialSchedule ps = PartialSchedule::empty(ctx);
    random_walk(ctx, ps, rng);
    // Decreasing bounds so replace-if-better keeps firing.
    if (!tt.seen_or_insert(ps, 1000 - round)) ++admitted;
  }
  EXPECT_LE(tt.size(), tt.capacity());
  const TranspositionCounters c = tt.counters();
  EXPECT_GT(c.evictions + c.rejected, 0u);
  EXPECT_EQ(c.inserts, tt.size());
  EXPECT_GT(admitted, 8);  // eviction kept admitting better-bound states
}

TEST(TranspositionTable, ClearDropsEntriesButKeepsCounters) {
  const TaskGraph g = test::independent_tasks(4);
  const SchedContext ctx = test::make_ctx(g, 2);
  TranspositionTable tt(tiny_config());
  const PartialSchedule s = one_move_state(ctx, 0, 0);
  EXPECT_FALSE(tt.seen_or_insert(s, 1));
  tt.clear();
  EXPECT_EQ(tt.size(), 0u);
  EXPECT_FALSE(tt.seen_or_insert(s, 1));  // re-inserted, not a hit
  EXPECT_EQ(tt.counters().probes, 2u);
}

/// Every prefix of `walks` random full walks: a pool of states in which
/// shared prefixes make re-probes of one state common.
std::vector<PartialSchedule> prefix_pool(const SchedContext& ctx, Rng& rng,
                                         int walks) {
  std::vector<PartialSchedule> states;
  for (int w = 0; w < walks; ++w) {
    PartialSchedule ps = PartialSchedule::empty(ctx);
    const auto moves = random_walk(ctx, ps, rng);
    PartialSchedule prefix = PartialSchedule::empty(ctx);
    for (const auto& [t, p] : moves) {
      prefix.place(ctx, t, p);
      states.push_back(prefix);
    }
  }
  return states;
}

using EntryMap = std::map<std::uint64_t, std::pair<PartialSchedule, Time>>;

/// The table's live entries, keyed by fingerprint. A 64-bit collision
/// between two live states would fail the uniqueness check, not pass.
EntryMap live_entries(const TranspositionTable& tt) {
  EntryMap out;
  tt.for_each_entry([&](const PartialSchedule& s, Time lb) {
    EXPECT_EQ(s.fingerprint(), s.fingerprint_from_scratch());
    EXPECT_TRUE(out.emplace(s.fingerprint(), std::pair{s, lb}).second)
        << "state listed twice";
  });
  return out;
}

void expect_same_entries(const EntryMap& got, const EntryMap& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [fp, entry] : want) {
    const auto it = got.find(fp);
    ASSERT_TRUE(it != got.end()) << "entry missing";
    EXPECT_TRUE(it->second.first == entry.first);
    EXPECT_EQ(it->second.second, entry.second);
  }
}

// States are stored densely and evictions reuse their victim's storage, so
// for_each_entry must still list exactly the live (state, lb) pairs. The
// single-bucket table is modelled by a reference map: bounds are drawn
// without repetition, so the eviction victim (the worst bound) is unique.
TEST(TranspositionTable, ForEachEntryListsLiveEntriesUnderEvictionAndClear) {
  const TaskGraph g = test::independent_tasks(6);
  const SchedContext ctx = test::make_ctx(g, 2);
  TranspositionTable tt(tiny_config(/*cap_bytes=*/1, /*shards=*/1));
  ASSERT_EQ(tt.capacity(), 8u);

  Rng rng(0xde5e);
  const std::vector<PartialSchedule> pool = prefix_pool(ctx, rng, 6);
  std::vector<Time> bounds(2000);
  for (std::size_t i = 0; i < bounds.size(); ++i)
    bounds[i] = static_cast<Time>(i);
  rng.shuffle(std::span<Time>(bounds));

  EntryMap ref;
  std::uint64_t evictions = 0;
  for (std::size_t op = 0; op < bounds.size(); ++op) {
    if (op == bounds.size() / 2) {
      tt.clear();
      ref.clear();
      EXPECT_TRUE(live_entries(tt).empty());
    }
    const PartialSchedule& s = pool[rng.index(pool.size())];
    const Time lb = bounds[op];
    const auto it = ref.find(s.fingerprint());
    bool expect_hit = false;
    if (it != ref.end()) {
      expect_hit = it->second.second <= lb;
      if (!expect_hit) it->second.second = lb;
    } else if (ref.size() < tt.capacity()) {
      ref.emplace(s.fingerprint(), std::pair{s, lb});
    } else {
      const auto worst = std::max_element(
          ref.begin(), ref.end(), [](const auto& a, const auto& b) {
            return a.second.second < b.second.second;
          });
      if (lb < worst->second.second) {
        ref.erase(worst);
        ref.emplace(s.fingerprint(), std::pair{s, lb});
        ++evictions;
      }
    }
    ASSERT_EQ(tt.seen_or_insert(s, lb), expect_hit) << "op " << op;
    expect_same_entries(live_entries(tt), ref);
    ASSERT_FALSE(HasFailure()) << "op " << op;
    EXPECT_EQ(tt.size(), ref.size());
  }
  EXPECT_GT(evictions, 0u);
  EXPECT_EQ(tt.counters().evictions, evictions);
}

// A snapshot's warm entries (placement paths, as a checkpoint stores them)
// restore every entry through preload, whether the table is one bucket
// under eviction or spread over several shards.
TEST(TranspositionTable, PreloadRestoresEveryExportedEntry) {
  const TaskGraph g = test::independent_tasks(6);
  const SchedContext ctx = test::make_ctx(g, 3);
  Rng rng(0x9e10);
  const std::vector<PartialSchedule> pool = prefix_pool(ctx, rng, 40);
  for (const TranspositionConfig cfg :
       {tiny_config(/*cap_bytes=*/1, /*shards=*/1), tiny_config()}) {
    TranspositionTable tt(cfg);
    for (std::size_t i = 0; i < pool.size(); ++i)
      tt.seen_or_insert(pool[i], static_cast<Time>(rng.uniform_int(0, 50)));
    const EntryMap exported = live_entries(tt);
    ASSERT_EQ(exported.size(), tt.size());

    std::vector<SnapshotTTEntry> warm;
    tt.for_each_entry([&](const PartialSchedule& s, Time lb) {
      warm.push_back(SnapshotTTEntry{placement_path(ctx, s), lb});
    });
    TranspositionTable restored(cfg);
    for (const SnapshotTTEntry& e : warm)
      restored.preload(replay_path(ctx, e.path), e.lb);
    expect_same_entries(live_entries(restored), exported);
    EXPECT_EQ(restored.counters().probes, 0u);  // preload is not search work
  }
}

TEST(TranspositionTable, ConcurrentProbesAreConsistent) {
  const TaskGraph g = test::independent_tasks(6);
  const SchedContext ctx = test::make_ctx(g, 3);
  TranspositionTable tt(tiny_config(/*cap_bytes=*/1 << 20, /*shards=*/8));

  // Pre-generate a pool of states (every prefix of a few random walks);
  // all threads then offer the whole pool at the same bound, so every
  // probe after the first for a given state must be a hit.
  Rng rng(0xc0ffee);
  const std::vector<PartialSchedule> states = prefix_pool(ctx, rng, 12);

  constexpr int kThreads = 8;
  std::atomic<std::uint64_t> pruned{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&tt, &states, &pruned] {
      std::uint64_t mine = 0;
      for (int round = 0; round < 50; ++round) {
        for (const PartialSchedule& s : states) {
          if (tt.seen_or_insert(s, 0)) ++mine;
        }
      }
      pruned.fetch_add(mine);
    });
  }
  for (auto& th : pool) th.join();

  const TranspositionCounters c = tt.counters();
  EXPECT_EQ(c.probes, static_cast<std::uint64_t>(kThreads) * 50 *
                          states.size());
  EXPECT_EQ(c.hits + c.misses, c.probes);
  EXPECT_EQ(c.hits, pruned.load());
  // Each distinct state is admitted exactly once across all threads.
  EXPECT_EQ(c.inserts, tt.size());
}

// ---------------------------------------------------------------------------
// Differential harness: B&B ± table vs the exhaustive oracle.
// ---------------------------------------------------------------------------

class TranspositionDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TranspositionDifferential, TableOnTableOffAndOracleAgree) {
  // 8 shards × 25 instances = 200 seeded random graphs (≤10 tasks so the
  // oracle stays exhaustive; 2–3 processors).
  const std::uint64_t shard = GetParam();
  for (std::uint64_t i = 0; i < 25; ++i) {
    const std::uint64_t seed = shard * 25 + i;
    Rng rng(derive_seed(0xd1ff, seed));
    const int procs = rng.chance(0.5) ? 2 : 3;
    // Keep the oracle's permutation count tractable at 3 processors.
    const int n = procs == 2 ? static_cast<int>(rng.uniform_int(5, 7))
                             : static_cast<int>(rng.uniform_int(4, 6));
    const int depth =
        static_cast<int>(rng.uniform_int(2, std::min(4, n - 1)));
    const TaskGraph g = test::tiny_random(seed, n, depth);
    const SchedContext ctx = test::make_ctx(g, procs);

    const BruteForceResult oracle = brute_force(ctx);

    Params off;  // paper defaults, no table
    off.select = static_cast<SelectRule>(rng.uniform_int(0, 2));
    Params on = off;
    on.transposition.enabled = true;
    // Small random caps so eviction paths run inside the differential too.
    on.transposition.memory_cap_bytes =
        std::size_t{1} << rng.uniform_int(10, 22);
    on.transposition.shards = static_cast<int>(rng.uniform_int(1, 8));

    const SearchResult r_off = solve_bnb(ctx, off);
    const SearchResult r_on = solve_bnb(ctx, on);

    ASSERT_TRUE(r_off.found_solution);
    ASSERT_TRUE(r_on.found_solution);
    EXPECT_EQ(r_off.best_cost, oracle.best_cost)
        << "seed " << seed << " n " << n << " m " << procs;
    EXPECT_EQ(r_on.best_cost, oracle.best_cost)
        << "seed " << seed << " n " << n << " m " << procs << " "
        << describe(on);
    EXPECT_TRUE(r_on.proved);
    EXPECT_EQ(max_lateness(r_on.best, g), r_on.best_cost);
    const ValidationReport rep =
        validate_schedule(r_on.best, g, make_shared_bus_machine(procs));
    EXPECT_TRUE(rep.structurally_sound) << rep.error;
    // The table only ever removes work.
    EXPECT_LE(r_on.stats.generated, r_off.stats.generated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranspositionDifferential,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(TranspositionEngine, CountersAreExported) {
  const TaskGraph g = test::tight_instance(5);
  const SchedContext ctx = test::make_ctx(g, 3);
  Params p;
  p.transposition.enabled = true;
  const SearchResult r = solve_bnb(ctx, p);
  ASSERT_TRUE(r.found_solution);
  EXPECT_GT(r.stats.tt_misses, 0u);
  EXPECT_GT(r.stats.tt_hits, 0u);  // BFn duplicates exist on any real graph

  Params off;
  const SearchResult r_off = solve_bnb(ctx, off);
  EXPECT_EQ(r.best_cost, r_off.best_cost);
  EXPECT_LT(r.stats.generated, r_off.stats.generated);
  EXPECT_EQ(r_off.stats.tt_hits, 0u);
  EXPECT_EQ(r_off.stats.tt_misses, 0u);
}

}  // namespace
}  // namespace parabb
