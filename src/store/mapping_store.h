// The fleet mapping store: persistent fingerprint -> mapping records.
//
// DRAMDig recovers one machine's mapping in one expensive run; a fleet
// service meets millions of near-identical machines and should pay that
// cost once per hardware configuration, not once per host. The store is
// that memory: each entry keys a machine fingerprint (sysinfo — CPU model
// plus DIMM geometry) to the recovered mapping, the classifier evidence
// that produced it, and the entry's verification history. The
// api::mapping_service consults it before dispatch: an exact fingerprint
// hit becomes a cheap verification job (store/verify.h), a geometry-only
// hit warm-starts a full run, and only a cold miss pays full recovery.
//
// On-disk format, schema v3: an append-only JSON-lines log. This is the
// one description of the store schema; tool_result::to_json points here.
//
//   {"store": "dramdig-mapping-store", "version": 3}
//   {"fingerprint": {...}, "mapping": {...}, "evidence": {...}, ...}
//   {"fingerprint": {...}, ...}
//
// The first line is the header. Every later line is one entry record,
// rendered compact on a single line (json_writer::layout::compact):
//
//   { "fingerprint": { "cpu_model": ..., "generation": "DDR3",
//                      "total_bytes": ..., "channels": ...,
//                      "dimms_per_channel": ..., "ranks_per_dimm": ...,
//                      "banks_per_rank": ..., "ecc": ...,
//                      "hash": ..., "geometry_hash": ... },
//     "mapping": { "bank_functions": [...], "row_bits": [...],
//                  "column_bits": [...], "address_bits": ... },
//     "evidence": { "pool_size": ..., "bank_count": ...,
//                   "threshold_ns": ... },
//     "history": [ { "kind": "recovered|verified|verify_failed|
//                             warm_recovered",
//                    "seed": ..., "measurements": ... }, ... ] }
//
// The history holds the entry's newest kHistoryLimit (8) events, oldest
// first: a fleet re-verifies one entry on every job, so an unbounded
// history would grow every record, and every save, without end.
//
// The mapping is the entry's one claim: a warm run derives the
// bank-function span from its bank_functions (dramdig_config::warm), so no
// stored copy can disagree with them. Records written before that carry a
// "function_span" key beside the mapping, and records written before the
// evidence digest was dropped carry an evidence "digest" key (v1 and v2
// documents always carry both); the loader ignores both keys, so those
// files load unchanged and without a warning.
//
// Masks and bit lists are numeric (util/json.h round-trips 64-bit values
// exactly), unlike tool_result's display strings. The evidence block's
// bank count and calibrated threshold, with the mapping's bit lists, form
// the prior a geometry hit transfers into a warm run
// (dramdig_config::warm).
//
// Loading replays the log: a record whose fingerprint hash equals an
// earlier record's replaces it in place, which is put()'s rule, so a
// reload's to_json() equals the live store's. The stored fingerprint
// hashes are recomputed and cross-checked for every record.
//
// Commit rule: a record is committed if and only if its terminating '\n'
// is on disk. A final line without one is a torn append (a crash or a
// failed write mid-save): load drops it with a load_warning() and keeps
// every complete record before it. Any other damage — a bad or torn
// header, a complete line that does not parse as an entry, a hash
// mismatch — degrades the store to empty with a load_warning(): a broken
// file costs a cold run, never a crash, and stays on disk untouched until
// the next save() rewrites it.
//
// Write path: save() appends the records of the entries put since the
// last save, in one write() on an O_APPEND descriptor. It rewrites the
// whole compacted log (header plus one record per entry, i.e. to_json())
// through write_file's tmp-then-rename instead when
//   - the store cannot vouch for the file: the first save after an
//     absent, v1/v2, degraded or torn-tail load, or after a failed save;
//   - the file's size differs from what this store last wrote or loaded
//     (another process wrote it); or
//   - the append would grow the file past kCompactionFactor (2) times the
//     compacted log, which bounds the file and keeps a save amortized
//     O(changed entry).
// Durability is the process-crash kind, as for write_file: nothing is
// fsync'd.
//
// Single writer: the store assumes it is the only process writing its
// file. The size check turns a concurrent writer's change into a rewrite
// of this store's own view, so the last writer wins, as with whole-file
// saves; it does not merge the two stores.
//
// Older versions: v2 and v1 files are one pretty-printed JSON document,
// {"store": ..., "version": 1|2, "entries": [<entry>, ...]}. They load
// without a warning, and the first save rewrites the file as a v3 log.
// v1 evidence blocks carry only {digest, pool_size}: the v2 keys read as
// zero, i.e. "no claim", and a warm run uses such an entry only for the
// span of its bank functions, the prior it always was.
//
// Each entry's fingerprint hashes and record text are computed once, when
// put() or the load brings the entry in; lookups compare the cached
// hashes, and to_json() and save() concatenate the cached records.

#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dram/mapping.h"
#include "sysinfo/system_info.h"
#include "util/gf2.h"

namespace dramdig::store {

/// One verification-history event on a store entry.
struct verification_event {
  /// "recovered" (cold run), "verified" (spot-check passed),
  /// "verify_failed" (spot-check refuted the entry), "warm_recovered"
  /// (geometry-hit run that produced/overwrote this entry).
  std::string kind;
  std::uint64_t seed = 0;          ///< environment seed of the run
  std::uint64_t measurements = 0;  ///< what the event cost
};

/// Events an entry's history keeps (see the schema comment above).
constexpr std::size_t kHistoryLimit = 8;

/// Append `event` to `history`, dropping the oldest beyond kHistoryLimit.
void append_history(std::vector<verification_event>& history,
                    verification_event event);

/// One fingerprint -> mapping record.
struct store_entry {
  sysinfo::machine_fingerprint fingerprint;
  std::vector<std::uint64_t> bank_functions;
  std::vector<unsigned> row_bits;
  std::vector<unsigned> column_bits;
  unsigned address_bits = 0;
  /// function_span and evidence_digest are neither written nor read by
  /// the library. They are kept, with compute_evidence_digest(), only
  /// because the benchmark harness (perfbench/src/workloads.cpp) still
  /// assigns them; delete all three with the next benchmark change.
  gf2::matrix function_span;
  std::uint64_t evidence_digest = 0;
  /// Selection-pool size of the recovering run (stored evidence; the
  /// partition pre-sizes the measurement plan from its own pool).
  std::uint64_t pool_size = 0;
  /// Bank count the recovering run resolved (schema v2; 0 on entries
  /// loaded from v1 documents = no claim). Seeds the warm run's
  /// wrong-bank-count sweep and the partition pool stratification.
  unsigned bank_count = 0;
  /// Calibrated row-conflict threshold of the recovering run (schema v2;
  /// 0 = no claim). Authorizes an early calibration stop on geometry
  /// siblings once local estimates confirm it.
  double threshold_ns = 0.0;
  std::vector<verification_event> history;

  /// The stored mapping as the hypothesis type tools output.
  [[nodiscard]] dram::address_mapping mapping() const;
  /// FNV-1a over (span, row/column bits, pool size, bank count,
  /// threshold_ns); see evidence_digest.
  [[nodiscard]] std::uint64_t compute_evidence_digest() const;
};

/// Thread-safe persistent store. All lookups return copies, so a returned
/// entry stays valid across concurrent put()s (daemon mode).
class mapping_store {
 public:
  /// In-memory store; save() is a no-op until a path is attached.
  mapping_store() = default;
  /// Load `path` if it exists. A torn final record is dropped and
  /// anything else corrupted or unreadable degrades to an empty store;
  /// either way load_warning() carries the reason and the file is left
  /// untouched until the next save().
  explicit mapping_store(std::string path);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Nonempty when construction found a file it could not fully trust.
  [[nodiscard]] const std::string& load_warning() const noexcept {
    return load_warning_;
  }

  /// Exact fingerprint-hash hit: candidate for a verification-only job.
  [[nodiscard]] std::optional<store_entry> find_exact(
      const sysinfo::machine_fingerprint& fp) const;
  /// Geometry-hash hit (same DIMM layout, different CPU): candidate for a
  /// warm-started full run. Never returns an exact hit's entry twin — use
  /// find_exact first.
  [[nodiscard]] std::optional<store_entry> find_geometry(
      const sysinfo::machine_fingerprint& fp) const;

  /// Insert or overwrite the entry with the same fingerprint hash. The
  /// entry's hashes and record text are computed here, outside the lock.
  void put(store_entry entry);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<store_entry> entries() const;  ///< snapshot

  /// The compacted v3 log: the header line, then one record line per
  /// entry in store order.
  [[nodiscard]] std::string to_json() const;
  /// Persist the entries put since the last save to the attached path
  /// (no-op without one): an append, or a whole-log rewrite as the schema
  /// comment above describes. Throws std::runtime_error on I/O failure;
  /// the next save() then rewrites the whole log.
  void save();

 private:
  /// One entry with what lookups and saves read of it, computed once.
  struct slot {
    /// Hashes the fingerprint and renders the entry's record line.
    explicit slot(store_entry e);

    store_entry entry;
    std::uint64_t hash = 0;           ///< entry.fingerprint.hash()
    std::uint64_t geometry_hash = 0;  ///< entry.fingerprint.geometry_hash()
    std::string record;  ///< the entry's log line, '\n' included
    bool saved = false;  ///< record is in the file as last written/loaded
  };

  [[nodiscard]] std::string to_json_locked() const;
  void load_locked(const std::string& text);
  void load_log_locked(std::string_view records);
  /// Insert `fresh`, or replace the slot with the same fingerprint hash.
  void upsert_locked(slot fresh);

  mutable std::mutex mutex_;
  std::string path_;
  std::string load_warning_;
  std::vector<slot> slots_;
  /// The file is a log whose replay yields exactly the saved slots, so
  /// the unsaved ones may be appended to it.
  bool vouched_ = false;
  /// Size of the file as this store last wrote or loaded it.
  std::uint64_t file_bytes_ = 0;
};

}  // namespace dramdig::store
