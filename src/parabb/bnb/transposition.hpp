// Concurrent duplicate-state transposition table for the B&B engines.
//
// The BFn branching rule reaches the same partial schedule along every
// interleaving of commuting placements (independent tasks placed on
// distinct processors, in either order, produce the identical state), so
// the naive vertex space contains each state up to k! times. The table
// records the fingerprint of every state that has entered the search and
// prunes any later vertex whose state was already recorded with an
// equal-or-better lateness bound — safe because identical states root
// identical subtrees (see docs/algorithm.md, "Duplicate detection").
//
// Layout: the fingerprint's low bits pick one of S shards (lock striping:
// each shard has its own mutex, so concurrent probes from the parallel
// engine's workers only contend when they land on the same shard); inside
// a shard, open addressing over fixed-capacity buckets of 8 slots. The
// slot data is split into parallel arrays so the common probe (miss or
// fingerprint mismatch) reads exactly one cache line: a bucket's eight
// 64-bit fingerprints are contiguous and 64-byte aligned; bounds and
// 32-bit state indices live in sibling arrays touched only on a
// fingerprint match or an insert, and the full states in a per-shard
// array filled densely in insertion order, so resident memory follows the
// number of stored states rather than the capacity. Capacity is fixed up
// front from the memory cap, so table memory stays bounded no matter how
// large the search grows; a full bucket evicts its worst-bound (largest
// lb) entry when the new state's bound is better, and rejects the
// insertion otherwise (replace-if-better).
//
// A fingerprint match falls back to PartialSchedule::operator== before
// declaring a duplicate, so a 64-bit collision costs one comparison
// (counted) instead of an unsound prune.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <type_traits>

#include "parabb/sched/partial_schedule.hpp"
#include "parabb/support/types.hpp"

namespace parabb {

/// Params knob controlling duplicate detection (Params::transposition).
struct TranspositionConfig {
  bool enabled = false;
  /// Upper bound on table memory; entries beyond it are handled by
  /// replace-if-better eviction, never by growth.
  std::size_t memory_cap_bytes = std::size_t{16} << 20;
  /// Lock stripes; rounded to the next power of two, clamped to [1, 1024].
  /// More shards = less contention under the parallel engine.
  int shards = 16;
};

/// Monotone event counters; aggregated across shards on read.
struct TranspositionCounters {
  std::uint64_t probes = 0;      ///< seen_or_insert calls
  std::uint64_t hits = 0;        ///< duplicate found with bound <= query
  std::uint64_t misses = 0;      ///< state not present (insert attempted)
  std::uint64_t inserts = 0;     ///< new entries stored
  std::uint64_t evictions = 0;   ///< worse-bound entries replaced
  std::uint64_t rejected = 0;    ///< inserts dropped (window full, no worse)
  std::uint64_t collisions = 0;  ///< equal fingerprint, unequal state
};

class TranspositionTable {
 public:
  explicit TranspositionTable(const TranspositionConfig& config);
  ~TranspositionTable();  // out of line: Shard is incomplete here

  TranspositionTable(const TranspositionTable&) = delete;
  TranspositionTable& operator=(const TranspositionTable&) = delete;

  /// The duplicate test + record, as one atomic step per shard. Returns
  /// true when `state` is already recorded with bound <= `lb` — the caller
  /// should prune the vertex. Otherwise records (state, lb), subject to
  /// the eviction policy, and returns false. `fp` must be
  /// state.fingerprint(); it is a parameter so tests can force collisions.
  bool seen_or_insert(std::uint64_t fp, const PartialSchedule& state,
                      Time lb);

  /// Convenience overload using the state's own fingerprint.
  bool seen_or_insert(const PartialSchedule& state, Time lb) {
    return seen_or_insert(state.fingerprint(), state, lb);
  }

  /// Counter snapshot summed over all shards (takes every shard lock).
  TranspositionCounters counters() const;

  /// Entries currently stored (sums shard occupancy; takes shard locks).
  std::size_t size() const;

  std::size_t capacity() const noexcept;

  /// Fixed allocation footprint of the slot arrays.
  std::size_t memory_bytes() const noexcept;

  int shard_count() const noexcept { return shard_count_; }

  /// Drops every entry (counters keep accumulating).
  void clear();

  /// Checkpoint export (ckpt/snapshot.hpp): visits every live entry, one
  /// shard at a time under that shard's lock. Entries inserted or evicted
  /// by concurrent workers may be seen or missed — any subset is a sound
  /// snapshot, because the table only ever accelerates pruning.
  void for_each_entry(
      const std::function<void(const PartialSchedule&, Time)>& fn) const;

  /// Checkpoint restore: re-inserts a snapshot survivor (insert-if-absent,
  /// replace-if-better) without touching the event counters, so a resumed
  /// run's statistics reflect search work, not the restore.
  void preload(const PartialSchedule& state, Time lb);

  /// Folds the counters a snapshot carried into this table, so counters()
  /// keeps accumulating across process restarts.
  void add_counters(const TranspositionCounters& prior);

 private:
  struct Shard;

  /// Slots per bucket; a bucket of fingerprints is one 64-byte cache line.
  static constexpr std::size_t kProbeWindow = 8;
  /// fp (8) + lb (8) + state index (4) + state, summed across the
  /// parallel arrays.
  static constexpr std::size_t kBytesPerSlot =
      sizeof(std::uint64_t) + sizeof(Time) + sizeof(std::uint32_t) +
      sizeof(PartialSchedule);
  // The table's capacity under a fixed memory cap depends on this size
  // (slots per shard are rounded down to a power of two, so a few bytes
  // can halve or double it); a layout change must be a deliberate one.
  static_assert(sizeof(PartialSchedule) == 224);

  static_assert(std::is_trivially_copyable_v<PartialSchedule>);

  Shard& shard_for(std::uint64_t fp) const noexcept;

  /// seen_or_insert on a locked shard, counting into `counters`.
  bool probe(Shard& shard, std::uint64_t fp, const PartialSchedule& state,
             Time lb, TranspositionCounters& counters);

  std::unique_ptr<Shard[]> shards_;
  int shard_count_ = 1;
  std::uint64_t shard_mask_ = 0;
  std::size_t slots_per_shard_ = 0;
};

}  // namespace parabb
