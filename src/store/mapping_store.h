// The fleet mapping store: persistent fingerprint -> mapping records.
//
// DRAMDig recovers one machine's mapping in one expensive run; a fleet
// service meets millions of near-identical machines and should pay that
// cost once per hardware configuration, not once per host. The store is
// that memory: each entry keys a machine fingerprint (sysinfo — CPU model
// plus DIMM geometry) to the recovered mapping, the bank-function span,
// a digest of the classifier evidence that produced it, and the entry's
// verification history. The api::mapping_service consults it before
// dispatch: an exact fingerprint hit becomes a cheap verification job
// (store/verify.h), a geometry-only hit warm-starts a full run, and only
// a cold miss pays full recovery.
//
// On-disk format (schema also documented next to tool_result::to_json):
//
//   {
//     "store": "dramdig-mapping-store",
//     "version": 2,
//     "entries": [
//       {
//         "fingerprint": { "cpu_model": ..., "generation": "DDR3",
//                          "total_bytes": ..., "channels": ...,
//                          "dimms_per_channel": ..., "ranks_per_dimm": ...,
//                          "banks_per_rank": ..., "ecc": ...,
//                          "hash": ..., "geometry_hash": ... },
//         "mapping": { "bank_functions": [...], "row_bits": [...],
//                      "column_bits": [...], "address_bits": ... },
//         "function_span": [...],          // row-echelon basis of the span
//         "evidence": { "digest": ..., "pool_size": ...,
//                       "bank_count": ..., "threshold_ns": ... },  // v2
//         "history": [ { "kind": "recovered|verified|verify_failed|
//                                 warm_recovered",
//                        "seed": ..., "measurements": ... }, ... ]
//       }, ...
//     ]
//   }
//
// Schema v2 extends the v1 evidence block with the recovering run's bank
// count and calibrated threshold; together with the mapping's bit lists
// they form the full evidence prior a geometry hit transfers into a warm
// run (dramdig_config::warm). Version 1 documents (no such keys) still
// load, silently, as span-only priors — the evidence fields read as
// zero/empty and every warm consumer treats that as "no claim".
//
// The stored fingerprint hashes are recomputed and cross-checked on load;
// any parse error, schema mismatch, or hash mismatch degrades the store
// to empty with a logged warning — a truncated file (e.g. a crash mid
// save) costs a cold run, never a crash.
//
// The write path is incremental. Each entry's fingerprint hashes and its
// JSON text (indented for its place in the "entries" array) are computed
// once, when put() or the load brings the entry in; lookups compare the
// cached hashes, and to_json() splices the cached texts between the
// document's header and footer. A save therefore costs the rendering of
// the changed entry plus one whole-file write, not a re-serialization of
// every entry, and writes the same bytes a one-pass render would.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
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

/// One fingerprint -> mapping record.
struct store_entry {
  sysinfo::machine_fingerprint fingerprint;
  std::vector<std::uint64_t> bank_functions;
  std::vector<unsigned> row_bits;
  std::vector<unsigned> column_bits;
  unsigned address_bits = 0;
  /// Row-echelon basis of the bank-function span — the classifier's
  /// warm-start hint (core/classifier.h warm_start).
  gf2::matrix function_span;
  /// FNV-1a over (span, row/column bits, pool size, bank count,
  /// threshold_ns), set when the service builds an entry and round-tripped
  /// through the file. Nothing reads it back or compares it with a
  /// recomputation: it is a record of the evidence, not a check on it.
  std::uint64_t evidence_digest = 0;
  /// Selection-pool size of the recovering run — pre-sizes the
  /// measurement plan on warm starts.
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
  /// Recompute evidence_digest from the current fields.
  [[nodiscard]] std::uint64_t compute_evidence_digest() const;
};

/// Thread-safe persistent store. All lookups return copies, so a returned
/// entry stays valid across concurrent put()s (daemon mode).
class mapping_store {
 public:
  /// In-memory store; save() is a no-op until a path is attached.
  mapping_store() = default;
  /// Load `path` if it exists. Corrupted/truncated/unreadable content
  /// degrades to an empty store: load_warning() carries the reason and
  /// the file is left untouched until the next save().
  explicit mapping_store(std::string path);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Nonempty when construction found a file it could not trust.
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
  /// entry's hashes and JSON text are computed here, outside the lock.
  void put(store_entry entry);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<store_entry> entries() const;  ///< snapshot

  /// Serialize the whole store (the on-disk document) from the cached
  /// entry texts.
  [[nodiscard]] std::string to_json() const;
  /// Write to the attached path (no-op without one) through write_file's
  /// tmp-then-rename. Throws std::runtime_error on I/O failure.
  void save() const;

 private:
  /// One entry with what lookups and saves read of it, computed once.
  struct slot {
    /// Hashes the fingerprint and renders the entry's JSON text.
    explicit slot(store_entry e);

    store_entry entry;
    std::uint64_t hash = 0;           ///< entry.fingerprint.hash()
    std::uint64_t geometry_hash = 0;  ///< entry.fingerprint.geometry_hash()
    std::string json;  ///< the entry object at its depth in the document
  };

  [[nodiscard]] std::string to_json_locked() const;
  void load_locked(const std::string& text);

  mutable std::mutex mutex_;
  std::string path_;
  std::string load_warning_;
  std::vector<slot> slots_;
};

}  // namespace dramdig::store
