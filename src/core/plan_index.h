// Arena-backed storage for the measurement plan's relation cache.
//
// Every address the plan has met gets one dense `record`, numbered in
// creation order. A record holds the address's union-find node and the
// handle of its witness list; everything else the plan stores refers to
// addresses by record id, never by address:
//
//  * one open-addressing table (linear probing, power-of-two slots) maps
//    an address to its record — the only place an address is hashed. A
//    slot packs the record id with 32 more bits of the address's hash, so
//    a probe reads a record only when those bits match: a miss, the common
//    case for a pool address met for the first time, touches the slot
//    table alone;
//  * a shared witness arena of 32-bit record ids: every list is a
//    contiguous slice of one std::vector, grown geometrically per list. A
//    list that outgrows its slice is copied to fresh space at the arena
//    tail and the old slice is abandoned until clear() — the abandoned
//    slices of one list sum to less than its live slice, and there is no
//    per-address allocation at all. A witness's class is then one read of
//    its record's node, not a hash lookup;
//  * an insert-only open-addressing set of 8-byte packed record-id pairs
//    holding the strict SBDR positives (negatives live on the witness lists
//    only).
//
// Record ids and node ids are storage handles: the plan compares them for
// equality only, so the order addresses are first seen in never reaches a
// verdict.
//
// The index is storage only: stats and the derivation rules stay in
// measurement_plan. Witness lists keep insertion order and only grow
// until clear().
//
// Mutation invalidates views: any witness_push may grow the arena, so a
// span returned by witnesses() is valid only until the next push on ANY
// list. Callers that loop over one list while recording negatives on
// others must copy the list first (see classify_partners).
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/expect.h"

namespace dramdig::core {

class plan_index {
 public:
  /// Dense record id, in creation order.
  using rec_id = std::uint32_t;
  /// "No record" from find(), and "no union-find node yet" from node().
  static constexpr rec_id none = std::numeric_limits<rec_id>::max();

  plan_index() { clear(); }

  /// Drop every record, witness and memo entry (keeps vector capacity).
  void clear() {
    records_.clear();
    slots_.assign(kMinSlots, 0);
    witness_arena_.clear();
    memo_slots_.assign(kMinSlots, kEmptyKey);
    memo_used_ = 0;
  }

  /// Pre-size for `addresses` distinct addresses, as many memo pairs and
  /// a first witness slice for each, in total, so filling up to that pays
  /// no rehash cascade. Probe results do not depend on table size, so this
  /// changes capacity only, never any observable.
  void reserve(std::size_t addresses) {
    records_.reserve(addresses);
    witness_arena_.reserve(addresses * kFirstSlice);
    const std::size_t want = table_size_for(addresses);
    if (want > slots_.size()) rehash_slots(want);
    if (want > memo_slots_.size()) rehash_memo(want);
  }

  /// Slot capacity of the address table and the memo (for tests).
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] std::size_t memo_capacity() const noexcept {
    return memo_slots_.size();
  }

  // --- address records ----------------------------------------------------

  /// Records created since the last clear().
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// Record of `addr`, or none when the address was never seen.
  [[nodiscard]] rec_id find(std::uint64_t addr) const {
    const std::uint64_t h = hash_addr(addr);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t at = h & mask; slots_[at] != 0; at = (at + 1) & mask) {
      const rec_id rec = match(slots_[at], h, addr);
      if (rec != none) return rec;
    }
    return none;
  }

  /// Hint the cache about `addr`'s slot ahead of a find: batch loops
  /// issue it a few pairs early so the probes of consecutive addresses
  /// overlap.
  void prefetch(std::uint64_t addr) const {
    __builtin_prefetch(&slots_[hash_addr(addr) & (slots_.size() - 1)]);
  }

  /// Record of `addr`, creating an empty one (no node, no witnesses) on
  /// first sight.
  [[nodiscard]] rec_id find_or_create(std::uint64_t addr) {
    if ((records_.size() + 1) * 10 > slots_.size() * 7) {
      rehash_slots(slots_.size() * 2);
    }
    const std::uint64_t h = hash_addr(addr);
    const std::size_t mask = slots_.size() - 1;
    std::size_t at = h & mask;
    for (; slots_[at] != 0; at = (at + 1) & mask) {
      const rec_id rec = match(slots_[at], h, addr);
      if (rec != none) return rec;
    }
    DRAMDIG_EXPECTS(records_.size() < none - 1);
    const auto rec = static_cast<rec_id>(records_.size());
    records_.push_back(record{addr});
    slots_[at] = slot_of(h, rec);
    return rec;
  }

  [[nodiscard]] std::uint64_t addr(rec_id rec) const {
    return records_[rec].addr;
  }
  /// Union-find node of the record, or none until assigned.
  [[nodiscard]] rec_id node(rec_id rec) const { return records_[rec].node; }
  void set_node(rec_id rec, std::size_t node) {
    DRAMDIG_EXPECTS(node < none);
    records_[rec].node = static_cast<rec_id>(node);
  }

  // --- witness lists ------------------------------------------------------

  /// The record's witness list, oldest first. Invalidated by any
  /// witness_push (arena growth), on any record.
  [[nodiscard]] std::span<const rec_id> witnesses(rec_id rec) const {
    const record& r = records_[rec];
    return {witness_arena_.data() + r.wbegin, r.wsize};
  }

  /// True once the record has been pushed onto any witness list.
  [[nodiscard]] bool witnessed(rec_id rec) const {
    return records_[rec].witnessed;
  }

  void witness_push(rec_id rec, rec_id pivot) {
    records_[pivot].witnessed = true;
    record& r = records_[rec];
    const std::uint32_t cap = r.wcap_log2 == 0 ? 0 : 1u << r.wcap_log2;
    if (r.wsize == cap) {
      // Relocate to fresh space at the arena tail, doubling capacity. The
      // old slice is abandoned until clear().
      const unsigned log2 =
          r.wcap_log2 == 0 ? std::countr_zero(kFirstSlice) : r.wcap_log2 + 1u;
      const std::size_t at = witness_arena_.size();
      DRAMDIG_EXPECTS(log2 < 32 && at + (std::size_t{1} << log2) <= none);
      witness_arena_.resize(at + (std::size_t{1} << log2));
      for (std::uint32_t i = 0; i < r.wsize; ++i) {
        witness_arena_[at + i] = witness_arena_[r.wbegin + i];
      }
      r.wbegin = static_cast<std::uint32_t>(at);
      r.wcap_log2 = static_cast<std::uint8_t>(log2);
    }
    witness_arena_[r.wbegin + r.wsize] = pivot;
    ++r.wsize;
  }

  // --- strict-positive pair memo -----------------------------------------

  /// The memo's key of an unordered record pair: the smaller id in the
  /// high word. Never kEmptyKey, which would need two `none` ids.
  [[nodiscard]] static std::uint64_t memo_key(rec_id a, rec_id b) noexcept {
    return a <= b ? (std::uint64_t{a} << 32) | b
                  : (std::uint64_t{b} << 32) | a;
  }

  /// Hint the cache about the pair's memo slot (see prefetch).
  void prefetch_memo(rec_id a, rec_id b) const {
    __builtin_prefetch(
        &memo_slots_[hash_key(memo_key(a, b)) & (memo_slots_.size() - 1)]);
  }

  /// True when the unordered pair is in the memo.
  [[nodiscard]] bool memo_contains(rec_id a, rec_id b) const {
    const std::uint64_t key = memo_key(a, b);
    const std::size_t mask = memo_slots_.size() - 1;
    std::size_t at = hash_key(key) & mask;
    while (memo_slots_[at] != kEmptyKey) {
      if (memo_slots_[at] == key) return true;
      at = (at + 1) & mask;
    }
    return false;
  }

  /// Add the unordered pair unless it is already present.
  void memo_insert(rec_id a, rec_id b) {
    if ((memo_used_ + 1) * 10 > memo_slots_.size() * 7) {
      rehash_memo(memo_slots_.size() * 2);
    }
    const std::uint64_t key = memo_key(a, b);
    const std::size_t mask = memo_slots_.size() - 1;
    std::size_t at = hash_key(key) & mask;
    while (memo_slots_[at] != kEmptyKey) {
      if (memo_slots_[at] == key) return;
      at = (at + 1) & mask;
    }
    memo_slots_[at] = key;
    ++memo_used_;
  }

  /// Distinct pairs in the memo.
  [[nodiscard]] std::size_t memo_size() const noexcept { return memo_used_; }

  // --- hashing -------------------------------------------------------------

  /// Slot hash of an address. Pool addresses share their low bits (they
  /// step by a power of two) and the table mask keeps only low bits, so
  /// every input bit must reach the low output bits.
  [[nodiscard]] static std::uint64_t hash_addr(std::uint64_t x) noexcept {
    x *= 0x9e3779b97f4a7c15ull;
    x ^= x >> 32;
    return x * 0xff51afd7ed558ccdull;
  }

  /// Slot hash of a memo key. Keys of one scan share their high word (the
  /// pivot's id) and differ in a few low bits, so the final xor-shift /
  /// multiply / xor-shift avalanche spreads both words over the low bits.
  [[nodiscard]] static std::uint64_t hash_key(std::uint64_t k) noexcept {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    return k ^ (k >> 33);
  }

 private:
  static constexpr std::size_t kMinSlots = 64;  // power of two
  static constexpr std::size_t kFirstSlice = 4;  // power of two
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  struct record {
    std::uint64_t addr = 0;
    rec_id node = none;         ///< union-find node id, none until assigned
    std::uint32_t wbegin = 0;   ///< witness slice start in the arena
    std::uint32_t wsize = 0;
    std::uint8_t wcap_log2 = 0; ///< slice capacity 1 << wcap_log2; 0 = none
    bool witnessed = false;     ///< ever pushed onto a witness list
  };

  /// A slot: the high 32 bits of the address's hash over record id + 1
  /// (0 = empty).
  static std::uint64_t slot_of(std::uint64_t hash, rec_id rec) noexcept {
    return (hash & ~std::uint64_t{0xffffffff}) | (std::uint64_t{rec} + 1);
  }
  /// The slot's record when it holds `addr` (hash `hash`), else none.
  [[nodiscard]] rec_id match(std::uint64_t slot, std::uint64_t hash,
                             std::uint64_t addr) const {
    if ((slot ^ hash) >> 32 != 0) return none;
    const auto rec = static_cast<rec_id>(slot - 1);
    return records_[rec].addr == addr ? rec : none;
  }

  /// Smallest power-of-two table that holds `entries` under the 0.7 load
  /// factor both tables grow at.
  static std::size_t table_size_for(std::size_t entries) {
    std::size_t want = kMinSlots;
    while ((entries + 1) * 10 > want * 7) want <<= 1;
    return want;
  }

  void rehash_slots(std::size_t size) {
    slots_.assign(size, 0);
    const std::size_t mask = size - 1;
    for (std::size_t rec = 0; rec < records_.size(); ++rec) {
      const std::uint64_t h = hash_addr(records_[rec].addr);
      std::size_t at = h & mask;
      while (slots_[at] != 0) at = (at + 1) & mask;
      slots_[at] = slot_of(h, static_cast<rec_id>(rec));
    }
  }

  void rehash_memo(std::size_t size) {
    std::vector<std::uint64_t> old(size, kEmptyKey);
    old.swap(memo_slots_);
    const std::size_t mask = size - 1;
    for (const std::uint64_t key : old) {
      if (key == kEmptyKey) continue;
      std::size_t at = hash_key(key) & mask;
      while (memo_slots_[at] != kEmptyKey) at = (at + 1) & mask;
      memo_slots_[at] = key;
    }
  }

  std::vector<record> records_;        ///< dense, creation order
  std::vector<std::uint64_t> slots_;   ///< open addressing, see slot_of
  std::vector<rec_id> witness_arena_;
  std::vector<std::uint64_t> memo_slots_;  ///< packed keys, kEmptyKey free
  std::size_t memo_used_ = 0;
};

}  // namespace dramdig::core
