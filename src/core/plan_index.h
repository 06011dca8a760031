// Arena-backed storage for the measurement plan's relation cache.
//
// The plan's bookkeeping used to live in three std::unordered_maps (address
// -> union-find node, address -> negative-witness list, pair -> strict
// verdict). Each map hit costs a hash, a pointer chase into a separately
// allocated bucket node, and — for the witness lists — a per-address heap
// vector. On the partition/probe hot loops that bookkeeping ate the entire
// wall-time saving of the 4x measurement cut. This index replaces all
// three with flat storage:
//
//  * one open-addressing table (linear probing, power-of-two slots) mapping
//    an address to a dense `record` holding the node id AND the witness
//    list handle — so a lookup that needs both pays one hash, not two;
//  * a shared witness arena: every address's list is a contiguous slice of
//    one std::vector, grown geometrically per list. A list that outgrows
//    its slice is copied to fresh space at the arena tail and the old slice
//    is abandoned until clear() — with the plan's LRU cap (max_witnesses)
//    the leaked space is bounded by the geometric sum, and in exchange
//    there is no per-address allocation at all;
//  * an insert-only open-addressing pair-memo table for strict verdicts.
//
// The index is storage only: LRU order, eviction, stats and the derivation
// rules stay in measurement_plan, which funnels every access through a
// handful of storage helpers.
//
// Mutation invalidates views: any witness_push may grow the arena, so a
// span returned by witnesses() is valid only until the next push on ANY
// list. Callers that loop over one list while recording negatives on
// others must copy the list first (see classify_partners).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/expect.h"

namespace dramdig::core {

class plan_index {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  plan_index() { clear(); }

  /// Drop every record, witness and memo entry (keeps slot capacity).
  void clear() {
    records_.clear();
    slots_.assign(kMinSlots, 0);
    slot_mask_ = kMinSlots - 1;
    witness_arena_.clear();
    memo_slots_.assign(kMinSlots, memo_slot{});
    memo_mask_ = kMinSlots - 1;
    memo_used_ = 0;
  }

  /// Pre-size for `addresses` distinct addresses (fleet warm start):
  /// grows the record vector and slot table up front so the first batch
  /// pays no rehash cascade. Probe results are table-size independent, so
  /// this changes capacity only, never any observable.
  void reserve(std::size_t addresses) {
    records_.reserve(addresses);
    std::size_t want = kMinSlots;
    while ((addresses + 1) * 10 > want * 7) want <<= 1;
    if (want > slots_.size()) {
      slots_.assign(want, 0);
      slot_mask_ = want - 1;
      for (std::size_t rec = 0; rec < records_.size(); ++rec) {
        std::size_t at = hash_addr(records_[rec].addr) & slot_mask_;
        while (slots_[at] != 0) at = (at + 1) & slot_mask_;
        slots_[at] = rec + 1;
      }
    }
  }

  // --- address records ----------------------------------------------------

  /// Record index for `addr`, or npos when the address was never seen.
  [[nodiscard]] std::size_t find(std::uint64_t addr) const {
    std::size_t at = hash_addr(addr) & slot_mask_;
    while (slots_[at] != 0) {
      const std::size_t rec = slots_[at] - 1;
      if (records_[rec].addr == addr) return rec;
      at = (at + 1) & slot_mask_;
    }
    return npos;
  }

  /// Record index for `addr`, creating an empty record (no node, no
  /// witnesses) on first sight.
  [[nodiscard]] std::size_t find_or_create(std::uint64_t addr) {
    if ((records_.size() + 1) * 10 > slots_.size() * 7) grow_slots();
    std::size_t at = hash_addr(addr) & slot_mask_;
    while (slots_[at] != 0) {
      const std::size_t rec = slots_[at] - 1;
      if (records_[rec].addr == addr) return rec;
      at = (at + 1) & slot_mask_;
    }
    records_.push_back(record{addr, npos, 0, 0, 0});
    slots_[at] = records_.size();
    return records_.size() - 1;
  }

  [[nodiscard]] std::size_t node(std::size_t rec) const {
    return records_[rec].node;
  }
  void set_node(std::size_t rec, std::size_t node) {
    records_[rec].node = node;
  }

  // --- witness lists ------------------------------------------------------

  /// The record's witness list, oldest first. Invalidated by any
  /// witness_push (arena growth), on any record.
  [[nodiscard]] std::span<const std::uint64_t> witnesses(
      std::size_t rec) const {
    const record& r = records_[rec];
    return {witness_arena_.data() + r.wbegin, r.wsize};
  }

  void witness_push(std::size_t rec, std::uint64_t pivot) {
    record& r = records_[rec];
    if (r.wsize == r.wcap) {
      // Relocate to fresh space at the arena tail, doubling capacity. The
      // old slice is abandoned until clear().
      const std::uint32_t cap = r.wcap == 0 ? 4 : r.wcap * 2;
      const std::size_t at = witness_arena_.size();
      witness_arena_.resize(at + cap);
      for (std::uint32_t i = 0; i < r.wsize; ++i) {
        witness_arena_[at + i] = witness_arena_[r.wbegin + i];
      }
      r.wbegin = at;
      r.wcap = cap;
    }
    witness_arena_[r.wbegin + r.wsize] = pivot;
    ++r.wsize;
  }

  /// Drop the oldest entry (LRU eviction).
  void witness_pop_front(std::size_t rec) {
    record& r = records_[rec];
    DRAMDIG_EXPECTS(r.wsize > 0);
    for (std::uint32_t i = 1; i < r.wsize; ++i) {
      witness_arena_[r.wbegin + i - 1] = witness_arena_[r.wbegin + i];
    }
    --r.wsize;
  }

  /// Rotate the entry at `pos` to the back (an LRU hit).
  void witness_move_to_back(std::size_t rec, std::size_t pos) {
    record& r = records_[rec];
    DRAMDIG_EXPECTS(pos < r.wsize);
    const std::uint64_t v = witness_arena_[r.wbegin + pos];
    for (std::size_t i = pos + 1; i < r.wsize; ++i) {
      witness_arena_[r.wbegin + i - 1] = witness_arena_[r.wbegin + i];
    }
    witness_arena_[r.wbegin + r.wsize - 1] = v;
  }

  // --- strict-verdict pair memo -------------------------------------------

  /// Memoized verdict for the (canonically ordered) pair, or -1 when the
  /// pair was never recorded.
  [[nodiscard]] int memo_find(std::uint64_t a, std::uint64_t b) const {
    std::size_t at = hash_pair(a, b) & memo_mask_;
    while (memo_slots_[at].used) {
      const memo_slot& s = memo_slots_[at];
      if (s.a == a && s.b == b) return s.val;
      at = (at + 1) & memo_mask_;
    }
    return -1;
  }

  /// Insert or overwrite the pair's verdict.
  void memo_store(std::uint64_t a, std::uint64_t b, char val) {
    if ((memo_used_ + 1) * 10 > memo_slots_.size() * 7) grow_memo();
    std::size_t at = hash_pair(a, b) & memo_mask_;
    while (memo_slots_[at].used) {
      memo_slot& s = memo_slots_[at];
      if (s.a == a && s.b == b) {
        s.val = val;
        return;
      }
      at = (at + 1) & memo_mask_;
    }
    memo_slots_[at] = {a, b, val, 1};
    ++memo_used_;
  }

 private:
  static constexpr std::size_t kMinSlots = 64;  // power of two

  struct record {
    std::uint64_t addr = 0;
    std::size_t node = npos;    ///< union-find node id, npos until assigned
    std::size_t wbegin = 0;     ///< witness slice start in the arena
    std::uint32_t wsize = 0;
    std::uint32_t wcap = 0;
  };

  struct memo_slot {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    char val = 0;
    char used = 0;
  };

  [[nodiscard]] static std::uint64_t hash_addr(std::uint64_t x) noexcept {
    x *= 0x9e3779b97f4a7c15ull;
    x ^= x >> 32;
    return x * 0xff51afd7ed558ccdull;
  }

  [[nodiscard]] static std::uint64_t hash_pair(std::uint64_t a,
                                               std::uint64_t b) noexcept {
    const std::uint64_t h = (a * 0x9e3779b97f4a7c15ull) ^
                            (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
    return h * 0xff51afd7ed558ccdull;
  }

  void grow_slots() {
    std::vector<std::size_t> old;
    old.swap(slots_);
    slots_.assign(old.size() * 2, 0);
    slot_mask_ = slots_.size() - 1;
    for (const std::size_t v : old) {
      if (v == 0) continue;
      std::size_t at = hash_addr(records_[v - 1].addr) & slot_mask_;
      while (slots_[at] != 0) at = (at + 1) & slot_mask_;
      slots_[at] = v;
    }
  }

  void grow_memo() {
    std::vector<memo_slot> old;
    old.swap(memo_slots_);
    memo_slots_.assign(old.size() * 2, memo_slot{});
    memo_mask_ = memo_slots_.size() - 1;
    for (const memo_slot& s : old) {
      if (!s.used) continue;
      std::size_t at = hash_pair(s.a, s.b) & memo_mask_;
      while (memo_slots_[at].used) at = (at + 1) & memo_mask_;
      memo_slots_[at] = s;
    }
  }

  std::vector<record> records_;       ///< dense, creation order
  std::vector<std::size_t> slots_;    ///< open addressing: 0 empty, rec+1
  std::size_t slot_mask_ = 0;
  std::vector<std::uint64_t> witness_arena_;
  std::vector<memo_slot> memo_slots_;
  std::size_t memo_mask_ = 0;
  std::size_t memo_used_ = 0;
};

}  // namespace dramdig::core
