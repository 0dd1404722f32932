#include "parabb/bnb/transposition.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>

#include "parabb/support/assert.hpp"

namespace parabb {

struct TranspositionTable::Shard {
  mutable std::mutex mutex;
  // Parallel arrays (see the header's layout note). fps is the only
  // zero-initialized allocation: fingerprint 0 means "free slot", so
  // construction touches 8 bytes per slot, not the whole memory cap —
  // engines build a table per solve and short searches must not pay for
  // it. lbs/state_idx are uninitialized until their slot is claimed, and
  // states until their index is first handed out (PartialSchedule is an
  // implicit-lifetime type: trivial copy constructor and destructor).
  // States are stored densely: the n-th claimed slot gets state index n
  // (entries are only ever replaced, never removed, so the next free index
  // is used_count), and an eviction overwrites its victim's state in
  // place. A table that holds k states therefore touches the pages of its
  // first k states only, however its slots spread over the buckets.
  std::unique_ptr<std::uint64_t[]> fps;
  std::unique_ptr<Time[]> lbs;
  std::unique_ptr<std::uint32_t[]> state_idx;
  std::unique_ptr<std::byte[]> state_storage;
  PartialSchedule* states = nullptr;
  std::size_t used_count = 0;
  TranspositionCounters counters;

  PartialSchedule& state(std::size_t slot) const noexcept {
    return states[state_idx[slot]];
  }
};

namespace {

int clamp_shards(int requested) {
  const int clamped = std::clamp(requested, 1, 1024);
  return static_cast<int>(std::bit_ceil(static_cast<unsigned>(clamped)));
}

/// Fingerprint 0 is the free-slot sentinel; remap real zeros (one state in
/// 2^64 — the equality fallback absorbs the extra collision).
std::uint64_t desentinel(std::uint64_t fp) noexcept {
  return fp == 0 ? 1 : fp;
}

}  // namespace

TranspositionTable::TranspositionTable(const TranspositionConfig& config) {
  shard_count_ = clamp_shards(config.shards);
  shard_mask_ = static_cast<std::uint64_t>(shard_count_) - 1;
  const std::size_t total_slots =
      std::max<std::size_t>(config.memory_cap_bytes / kBytesPerSlot, 1);
  // Power-of-two slot count so probe indices wrap with a mask, at least
  // one full bucket per shard, and few enough that 32-bit state indices
  // address every slot.
  slots_per_shard_ = std::bit_floor(std::clamp<std::size_t>(
      total_slots / static_cast<std::size_t>(shard_count_), kProbeWindow,
      std::size_t{1} << 32));
  shards_ = std::make_unique<Shard[]>(static_cast<std::size_t>(shard_count_));
  for (int s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    shard.fps = std::make_unique<std::uint64_t[]>(slots_per_shard_);
    shard.lbs = std::make_unique_for_overwrite<Time[]>(slots_per_shard_);
    shard.state_idx =
        std::make_unique_for_overwrite<std::uint32_t[]>(slots_per_shard_);
    shard.state_storage = std::make_unique_for_overwrite<std::byte[]>(
        slots_per_shard_ * sizeof(PartialSchedule));
    shard.states = reinterpret_cast<PartialSchedule*>(
        shard.state_storage.get());
  }
}

TranspositionTable::~TranspositionTable() = default;

TranspositionTable::Shard& TranspositionTable::shard_for(
    std::uint64_t fp) const noexcept {
  return shards_[static_cast<std::size_t>(fp & shard_mask_)];
}

bool TranspositionTable::seen_or_insert(std::uint64_t fp,
                                        const PartialSchedule& state,
                                        Time lb) {
  fp = desentinel(fp);
  Shard& shard = shard_for(fp);
  const std::lock_guard lock(shard.mutex);
  return probe(shard, fp, state, lb, shard.counters);
}

bool TranspositionTable::probe(Shard& shard, std::uint64_t fp,
                               const PartialSchedule& state, Time lb,
                               TranspositionCounters& counters) {
  ++counters.probes;

  // The shard index consumed the low bits; pick the bucket from the high
  // ones so the two choices stay independent. Aligning the window to a
  // bucket boundary keeps all eight fingerprints in one cache line.
  const std::size_t slot_mask = slots_per_shard_ - 1;
  const std::size_t base =
      (static_cast<std::size_t>(fp >> 10) & slot_mask) & ~(kProbeWindow - 1);
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t free_slot = kNone;
  std::size_t worst = kNone;
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    const std::size_t idx = base + i;
    const std::uint64_t slot_fp = shard.fps[idx];
    if (slot_fp == 0) {
      if (free_slot == kNone) free_slot = idx;
      continue;
    }
    if (slot_fp == fp) {
      if (shard.state(idx) == state) {
        if (shard.lbs[idx] <= lb) {
          ++counters.hits;
          return true;
        }
        // Re-seen with a strictly better bound: remember the improvement
        // so later duplicates are measured against the best-known bound.
        shard.lbs[idx] = lb;
        ++counters.misses;
        return false;
      }
      ++counters.collisions;  // 64-bit collision: equality saved us
    }
    if (worst == kNone || shard.lbs[idx] > shard.lbs[worst]) worst = idx;
  }

  ++counters.misses;
  std::size_t slot = free_slot;
  if (free_slot != kNone) {
    // The n-th claimed slot of a shard gets state index n.
    shard.state_idx[slot] = static_cast<std::uint32_t>(shard.used_count++);
    ++counters.inserts;
  } else {
    // Bucket full: replace-if-better, keyed on the bound — promising
    // (low-bound) states are the ones the search will regenerate most.
    // The newcomer takes over the victim's state index.
    PARABB_ASSERT(worst != kNone);
    if (lb >= shard.lbs[worst]) {
      ++counters.rejected;
      return false;
    }
    slot = worst;
    ++counters.evictions;
  }
  shard.fps[slot] = fp;
  shard.lbs[slot] = lb;
  shard.state(slot) = state;
  return false;
}

TranspositionCounters TranspositionTable::counters() const {
  TranspositionCounters total;
  for (int s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    const std::lock_guard lock(shard.mutex);
    total.probes += shard.counters.probes;
    total.hits += shard.counters.hits;
    total.misses += shard.counters.misses;
    total.inserts += shard.counters.inserts;
    total.evictions += shard.counters.evictions;
    total.rejected += shard.counters.rejected;
    total.collisions += shard.counters.collisions;
  }
  return total;
}

std::size_t TranspositionTable::size() const {
  std::size_t used = 0;
  for (int s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    const std::lock_guard lock(shard.mutex);
    used += shard.used_count;
  }
  return used;
}

std::size_t TranspositionTable::capacity() const noexcept {
  return static_cast<std::size_t>(shard_count_) * slots_per_shard_;
}

std::size_t TranspositionTable::memory_bytes() const noexcept {
  return capacity() * kBytesPerSlot;
}

void TranspositionTable::for_each_entry(
    const std::function<void(const PartialSchedule&, Time)>& fn) const {
  for (int s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    const std::lock_guard lock(shard.mutex);
    for (std::size_t i = 0; i < slots_per_shard_; ++i)
      if (shard.fps[i] != 0) fn(shard.state(i), shard.lbs[i]);
  }
}

void TranspositionTable::preload(const PartialSchedule& state, Time lb) {
  const std::uint64_t fp = desentinel(state.fingerprint());
  Shard& shard = shard_for(fp);
  const std::lock_guard lock(shard.mutex);
  TranspositionCounters uncounted;
  probe(shard, fp, state, lb, uncounted);
}

void TranspositionTable::add_counters(const TranspositionCounters& prior) {
  Shard& shard = shards_[0];
  const std::lock_guard lock(shard.mutex);
  shard.counters.probes += prior.probes;
  shard.counters.hits += prior.hits;
  shard.counters.misses += prior.misses;
  shard.counters.inserts += prior.inserts;
  shard.counters.evictions += prior.evictions;
  shard.counters.rejected += prior.rejected;
  shard.counters.collisions += prior.collisions;
}

void TranspositionTable::clear() {
  for (int s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    const std::lock_guard lock(shard.mutex);
    std::fill(shard.fps.get(), shard.fps.get() + slots_per_shard_,
              std::uint64_t{0});
    shard.used_count = 0;
  }
}

}  // namespace parabb
