// The persistent fingerprint -> mapping store: JSON round-trips, exact and
// geometry lookups, upserts, and the degradation contract — a corrupted or
// truncated store file must cost a cold run (empty store + logged warning),
// never a crash.
#include "store/mapping_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/environment.h"
#include "dram/presets.h"
#include "store/verify.h"
#include "sysinfo/system_info.h"
#include "util/gf2.h"
#include "util/json.h"

namespace dramdig::store {
namespace {

/// A unique temp path per test; removed on destruction.
class temp_path {
 public:
  explicit temp_path(const std::string& name)
      : path_(testing::TempDir() + "dramdig_store_" + name + ".json") {
    std::remove(path_.c_str());
  }
  ~temp_path() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

/// A store entry derived from a paper machine's ground truth (as if a cold
/// recovery had just produced it).
store_entry entry_for(int machine_number, std::uint64_t seed = 42) {
  const dram::machine_spec& m = dram::machine_by_number(machine_number);
  store_entry e;
  e.fingerprint = sysinfo::fingerprint(m);
  e.bank_functions = m.mapping.bank_functions();
  e.row_bits = m.mapping.row_bits();
  e.column_bits = m.mapping.column_bits();
  e.address_bits = m.mapping.address_bits();
  e.function_span = gf2::row_echelon(e.bank_functions);
  e.pool_size = 4096;
  e.bank_count = m.mapping.bank_count();
  e.threshold_ns = 250.5;
  e.history.push_back({"recovered", seed, 2348});
  e.evidence_digest = e.compute_evidence_digest();
  return e;
}

/// Rewrite a saved v2 document as its v1 twin: version 1, no bank_count /
/// threshold_ns evidence keys (the exact shape the v1 writer emitted).
std::string as_v1_document(std::string doc) {
  const std::size_t v = doc.find("\"version\": 2");
  EXPECT_NE(v, std::string::npos);
  doc.replace(v + 11, 1, "1");
  while (true) {
    const std::size_t bc = doc.find("\"bank_count\"");
    if (bc == std::string::npos) break;
    const std::size_t comma = doc.rfind(',', bc);
    std::size_t end = doc.find("\"threshold_ns\"", bc);
    end = doc.find('\n', end);
    doc.erase(comma, end - comma);
  }
  return doc;
}

TEST(MappingStore, StartsEmptyInMemory) {
  const mapping_store store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.path().empty());
  EXPECT_TRUE(store.load_warning().empty());
  EXPECT_FALSE(
      store.find_exact(sysinfo::fingerprint(dram::machine_by_number(1))));
}

TEST(MappingStore, PutFindExact) {
  mapping_store store;
  store.put(entry_for(1));
  store.put(entry_for(6));
  EXPECT_EQ(store.size(), 2u);
  const auto hit =
      store.find_exact(sysinfo::fingerprint(dram::machine_by_number(1)));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->bank_functions,
            dram::machine_by_number(1).mapping.bank_functions());
  EXPECT_EQ(hit->history.size(), 1u);
  EXPECT_EQ(hit->history[0].kind, "recovered");
  EXPECT_FALSE(
      store.find_exact(sysinfo::fingerprint(dram::machine_by_number(2))));
}

TEST(MappingStore, UpsertOverwritesSameFingerprint) {
  mapping_store store;
  store.put(entry_for(1, 42));
  store_entry updated = entry_for(1, 43);
  updated.history.push_back({"verified", 43, 700});
  store.put(updated);
  EXPECT_EQ(store.size(), 1u);
  const auto hit =
      store.find_exact(sysinfo::fingerprint(dram::machine_by_number(1)));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->history.size(), 2u);
  EXPECT_EQ(hit->history[1].kind, "verified");
}

TEST(MappingStore, FindGeometryMatchesSiblingNotSelf) {
  mapping_store store;
  store.put(entry_for(1));
  // Same board, different CPU bin: geometry hit, not an exact hit.
  dram::machine_spec sibling = dram::machine_by_number(1);
  sibling.cpu_model = "i5-2500";
  const auto fp = sysinfo::fingerprint(sibling);
  EXPECT_FALSE(store.find_exact(fp));
  const auto near = store.find_geometry(fp);
  ASSERT_TRUE(near);
  EXPECT_EQ(near->fingerprint.cpu_model, "i5-2400");
  // The entry's own fingerprint is an exact twin, never a geometry hit.
  EXPECT_FALSE(
      store.find_geometry(sysinfo::fingerprint(dram::machine_by_number(1))));
}

TEST(MappingStore, RoundTripsThroughDisk) {
  temp_path path("roundtrip");
  {
    mapping_store store(path.str());
    EXPECT_TRUE(store.load_warning().empty());  // absent file = cold, no fuss
    for (int n : {1, 5, 6}) store.put(entry_for(n));
    store.save();
  }
  mapping_store reloaded(path.str());
  EXPECT_TRUE(reloaded.load_warning().empty());
  ASSERT_EQ(reloaded.size(), 3u);
  for (int n : {1, 5, 6}) {
    const dram::machine_spec& m = dram::machine_by_number(n);
    const auto hit = reloaded.find_exact(sysinfo::fingerprint(m));
    ASSERT_TRUE(hit) << m.label();
    EXPECT_EQ(hit->bank_functions, m.mapping.bank_functions());
    EXPECT_EQ(hit->row_bits, m.mapping.row_bits());
    EXPECT_EQ(hit->column_bits, m.mapping.column_bits());
    EXPECT_EQ(hit->address_bits, m.mapping.address_bits());
    EXPECT_EQ(hit->pool_size, 4096u);
    EXPECT_EQ(hit->bank_count, m.mapping.bank_count());
    EXPECT_EQ(hit->threshold_ns, 250.5);
    EXPECT_EQ(hit->evidence_digest, hit->compute_evidence_digest());
    ASSERT_EQ(hit->history.size(), 1u);
    EXPECT_EQ(hit->history[0].measurements, 2348u);
    // The reloaded mapping reconstructs as a valid hypothesis equal to
    // the one stored.
    EXPECT_TRUE(hit->mapping().equivalent_to(m.mapping));
  }
}

TEST(MappingStore, SerializedFormIsStableAcrossReload) {
  temp_path path("stable");
  mapping_store store(path.str());
  store.put(entry_for(2));
  store.save();
  const std::string first = store.to_json();
  const mapping_store reloaded(path.str());
  EXPECT_EQ(reloaded.to_json(), first);
}

TEST(MappingStore, TruncatedFileDegradesToColdWithWarning) {
  temp_path path("truncated");
  {
    mapping_store store(path.str());
    store.put(entry_for(1));
    store.save();
  }
  const std::string full = read_file(path.str());
  // Every byte-truncation of a saved store must load as empty-with-warning
  // (sampled stride keeps the test fast; the JSON prefix property is
  // exhaustively covered in tests/util/test_json.cpp).
  for (std::size_t len = 0; len < full.size(); len += 97) {
    write_file(path.str(), full.substr(0, len));
    const mapping_store store(path.str());
    EXPECT_EQ(store.size(), 0u) << "prefix length " << len;
    if (len > 0) {
      EXPECT_FALSE(store.load_warning().empty()) << "prefix length " << len;
    }
    // The broken file stays on disk untouched until the next save().
    EXPECT_EQ(read_file(path.str()).size(), len);
  }
}

TEST(MappingStore, FailedSaveLeavesPreviousFileLoadable) {
  // save() writes a sibling temp file and renames it over the store, so a
  // save that dies before the rename never touches the saved document. A
  // directory squatting on the temp path makes the write fail.
  temp_path path("failed_save");
  mapping_store store(path.str());
  store.put(entry_for(1));
  store.put(entry_for(2));
  store.save();
  const std::filesystem::path tmp = path.str() + ".tmp";
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  store.put(entry_for(3));
  EXPECT_THROW(store.save(), std::runtime_error);
  std::filesystem::remove(tmp);
  const mapping_store reloaded(path.str());
  EXPECT_TRUE(reloaded.load_warning().empty());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(
      reloaded.find_exact(sysinfo::fingerprint(dram::machine_by_number(1))));
  EXPECT_TRUE(
      reloaded.find_exact(sysinfo::fingerprint(dram::machine_by_number(2))));
}

TEST(MappingStore, V1DocumentLoadsAsSpanOnlyPriorWithoutWarning) {
  temp_path path("v1");
  {
    mapping_store store(path.str());
    store.put(entry_for(1));
    store.save();
  }
  // A store written before the evidence schema: version 1, an evidence
  // block of only {digest, pool_size}. It must load silently — migration
  // is not a degradation — with the v2 evidence fields reading as "no
  // claim", i.e. exactly the span-only warm prior v1 always provided.
  write_file(path.str(), as_v1_document(read_file(path.str())));
  const mapping_store store(path.str());
  EXPECT_TRUE(store.load_warning().empty());
  ASSERT_EQ(store.size(), 1u);
  const auto hit =
      store.find_exact(sysinfo::fingerprint(dram::machine_by_number(1)));
  ASSERT_TRUE(hit);
  EXPECT_FALSE(hit->function_span.empty());
  EXPECT_EQ(hit->pool_size, 4096u);
  EXPECT_EQ(hit->bank_count, 0u);
  EXPECT_EQ(hit->threshold_ns, 0.0);
  // The next save() upgrades the document in place to version 2.
  store.save();
  EXPECT_NE(read_file(path.str()).find("\"version\": 2"), std::string::npos);
}

TEST(MappingStore, V2WithTruncatedEvidenceBlockDegradesToV1Behavior) {
  temp_path path("v2partial");
  {
    mapping_store store(path.str());
    store.put(entry_for(1));
    store.save();
  }
  // A version-2 header whose evidence block lost its v2 keys (e.g. a
  // document assembled by an older writer, or hand-edited): the optional
  // keys read as absent and the entry behaves exactly like a v1 load.
  std::string doc = as_v1_document(read_file(path.str()));
  const std::size_t v = doc.find("\"version\": 1");
  ASSERT_NE(v, std::string::npos);
  doc.replace(v + 11, 1, "2");
  write_file(path.str(), doc);
  const mapping_store store(path.str());
  EXPECT_TRUE(store.load_warning().empty());
  ASSERT_EQ(store.size(), 1u);
  const auto hit =
      store.find_exact(sysinfo::fingerprint(dram::machine_by_number(1)));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->bank_count, 0u);
  EXPECT_EQ(hit->threshold_ns, 0.0);
}

TEST(MappingStore, TruncatedV1FileDegradesToColdWithWarning) {
  temp_path path("truncated_v1");
  {
    mapping_store store(path.str());
    store.put(entry_for(1));
    store.save();
  }
  // The byte-truncation contract must hold for legacy documents too: any
  // prefix of a v1 store loads as empty-with-warning, never a crash and
  // never a partially-migrated entry.
  const std::string full = as_v1_document(read_file(path.str()));
  for (std::size_t len = 0; len < full.size(); len += 89) {
    write_file(path.str(), full.substr(0, len));
    const mapping_store store(path.str());
    EXPECT_EQ(store.size(), 0u) << "v1 prefix length " << len;
    if (len > 0) {
      EXPECT_FALSE(store.load_warning().empty()) << "v1 prefix length " << len;
    }
  }
}

TEST(MappingStore, GarbageFileDegradesToCold) {
  temp_path path("garbage");
  write_file(path.str(), "not json at all {{{");
  const mapping_store store(path.str());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.load_warning().empty());
}

TEST(MappingStore, WrongTagOrVersionDegradesToCold) {
  temp_path path("tag");
  write_file(path.str(),
             R"({"store": "something-else", "version": 1, "entries": []})");
  EXPECT_EQ(mapping_store(path.str()).size(), 0u);
  write_file(
      path.str(),
      R"({"store": "dramdig-mapping-store", "version": 999, "entries": []})");
  const mapping_store store(path.str());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.load_warning().empty());
}

TEST(MappingStore, TamperedHashDegradesToCold) {
  temp_path path("tampered");
  {
    mapping_store store(path.str());
    store.put(entry_for(1));
    store.save();
  }
  // Flip the stored fingerprint hash: the loader recomputes and must
  // refuse the whole file rather than trust a mislabeled entry.
  std::string doc = read_file(path.str());
  const std::string key = "\"hash\": ";
  const std::size_t at = doc.find(key);
  ASSERT_NE(at, std::string::npos);
  doc[at + key.size()] = doc[at + key.size()] == '1' ? '2' : '1';
  write_file(path.str(), doc);
  const mapping_store store(path.str());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.load_warning().empty());
}

// --- byte-exact documents ----------------------------------------------------
//
// The literals below are what the store wrote when every save re-rendered
// each entry in one pass. save() now splices each entry's text cached at
// put() or load; these pin that the bytes did not move.

/// A fully literal entry (no preset data), with a threshold that needs all
/// fifteen significant digits and a two-event history.
store_entry literal_entry() {
  store_entry e;
  e.fingerprint.cpu_model = "Intel i7-3770 (test)";
  e.fingerprint.generation = dram::ddr_generation::ddr3;
  e.fingerprint.total_bytes = 8ull << 30;
  e.fingerprint.channels = 2;
  e.fingerprint.dimms_per_channel = 1;
  e.fingerprint.ranks_per_dimm = 2;
  e.fingerprint.banks_per_rank = 8;
  e.fingerprint.ecc = false;
  e.bank_functions = {0x2040, 0x44000, 0x88000, 0x110000, 0x220000};
  e.row_bits = {18, 19, 20, 21};
  e.column_bits = {0, 1, 2, 3, 4, 5};
  e.address_bits = 33;
  e.function_span = e.bank_functions;
  e.pool_size = 4096;
  e.bank_count = 32;
  e.threshold_ns = 287.12345678901234;
  e.history.push_back({"recovered", 42, 2348});
  e.history.push_back({"verified", 7, 188});
  e.evidence_digest = e.compute_evidence_digest();
  return e;
}

TEST(MappingStoreBytes, EmptyStoreDocument) {
  const mapping_store store;
  EXPECT_EQ(store.to_json(),
            "{\n"
            "  \"store\": \"dramdig-mapping-store\",\n"
            "  \"version\": 2,\n"
            "  \"entries\": []\n"
            "}\n");
}

TEST(MappingStoreBytes, OneEntryDocument) {
  mapping_store store;
  store.put(literal_entry());
  const std::string expected =
      "{\n"
      "  \"store\": \"dramdig-mapping-store\",\n"
      "  \"version\": 2,\n"
      "  \"entries\": [\n"
      "    {\n"
      "      \"fingerprint\": {\n"
      "        \"cpu_model\": \"Intel i7-3770 (test)\",\n"
      "        \"generation\": \"DDR3\",\n"
      "        \"total_bytes\": 8589934592,\n"
      "        \"channels\": 2,\n"
      "        \"dimms_per_channel\": 1,\n"
      "        \"ranks_per_dimm\": 2,\n"
      "        \"banks_per_rank\": 8,\n"
      "        \"ecc\": false,\n"
      "        \"hash\": 9463507792138483794,\n"
      "        \"geometry_hash\": 5999634699570172704\n"
      "      },\n"
      "      \"mapping\": {\n"
      "        \"bank_functions\": [\n"
      "          8256,\n"
      "          278528,\n"
      "          557056,\n"
      "          1114112,\n"
      "          2228224\n"
      "        ],\n"
      "        \"row_bits\": [\n"
      "          18,\n"
      "          19,\n"
      "          20,\n"
      "          21\n"
      "        ],\n"
      "        \"column_bits\": [\n"
      "          0,\n"
      "          1,\n"
      "          2,\n"
      "          3,\n"
      "          4,\n"
      "          5\n"
      "        ],\n"
      "        \"address_bits\": 33\n"
      "      },\n"
      "      \"function_span\": [\n"
      "        8256,\n"
      "        278528,\n"
      "        557056,\n"
      "        1114112,\n"
      "        2228224\n"
      "      ],\n"
      "      \"evidence\": {\n"
      "        \"digest\": 5545060604729730806,\n"
      "        \"pool_size\": 4096,\n"
      "        \"bank_count\": 32,\n"
      "        \"threshold_ns\": 287.123456789012\n"
      "      },\n"
      "      \"history\": [\n"
      "        {\n"
      "          \"kind\": \"recovered\",\n"
      "          \"seed\": 42,\n"
      "          \"measurements\": 2348\n"
      "        },\n"
      "        {\n"
      "          \"kind\": \"verified\",\n"
      "          \"seed\": 7,\n"
      "          \"measurements\": 188\n"
      "        }\n"
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(store.to_json(), expected);
  // A reload renders the same text from the parsed entry.
  temp_path path("bytes_one");
  write_file(path.str(), expected);
  const mapping_store reloaded(path.str());
  EXPECT_TRUE(reloaded.load_warning().empty());
  EXPECT_EQ(reloaded.to_json(), expected);
}

TEST(MappingStoreBytes, PutSequenceSavesLikeAFreshStore) {
  // Appends, an overwrite in the middle with a longer text, another
  // append, then an overwrite of the first entry: each cached text must
  // land in its slot with the right separators.
  temp_path path("bytes_sequence");
  mapping_store store(path.str());
  for (int n : {1, 4, 6}) store.put(entry_for(n));
  store_entry longer = entry_for(4, 77);
  longer.history.push_back({"verified", 78, 190});
  longer.history.push_back({"verify_failed", 79, 205});
  longer.history.push_back({"recovered", 79, 9312});
  store.put(longer);
  store.put(entry_for(8));
  store_entry first = entry_for(1, 5);
  first.threshold_ns = 301.0625;
  first.evidence_digest = first.compute_evidence_digest();
  store.put(first);
  store.save();
  const std::string saved = read_file(path.str());

  mapping_store fresh;
  for (const store_entry& e : {first, longer, entry_for(6), entry_for(8)}) {
    fresh.put(e);
  }
  EXPECT_EQ(saved, fresh.to_json());
  const mapping_store reloaded(path.str());
  EXPECT_TRUE(reloaded.load_warning().empty());
  EXPECT_EQ(reloaded.to_json(), saved);
  ASSERT_EQ(reloaded.size(), 4u);
  EXPECT_EQ(reloaded.entries()[1].history.size(), 4u);
}

TEST(MappingStoreBytes, DegradedLoadThenPutSavesOneEntryDocument) {
  // A failed load drops every entry with its cached text, so the next
  // save writes only what was put after it.
  temp_path path("bytes_degraded");
  {
    mapping_store store(path.str());
    for (int n : {1, 2, 3}) store.put(entry_for(n));
    store.save();
  }
  const std::string full = read_file(path.str());
  write_file(path.str(), full.substr(0, full.size() / 2));
  mapping_store store(path.str());
  ASSERT_FALSE(store.load_warning().empty());
  ASSERT_EQ(store.size(), 0u);
  store.put(literal_entry());
  store.save();

  mapping_store fresh;
  fresh.put(literal_entry());
  EXPECT_EQ(read_file(path.str()), fresh.to_json());
  const mapping_store reloaded(path.str());
  EXPECT_TRUE(reloaded.load_warning().empty());
  EXPECT_EQ(reloaded.size(), 1u);
}

TEST(MappingStore, SaveWithoutPathIsNoOp) {
  mapping_store store;
  store.put(entry_for(1));
  EXPECT_NO_THROW(store.save());
}

TEST(StoreVerify, ConfirmsTruthfulEntry) {
  const dram::machine_spec& m = dram::machine_by_number(1);
  core::environment env(m, 42);
  const verify_report report = verify_stored_mapping(env, entry_for(1));
  EXPECT_TRUE(report.verified) << report.failure_reason;
  EXPECT_EQ(report.mismatches, 0u);
  EXPECT_GT(report.positives_tested, 0u);
  EXPECT_GT(report.negatives_tested, 0u);
  EXPECT_GT(report.total_measurements, 0u);
}

TEST(StoreVerify, RefutesPoisonedMask) {
  const dram::machine_spec& m = dram::machine_by_number(1);
  store_entry poisoned = entry_for(1);
  // Replace one stored function with a wrong mask (a row bit pair the
  // real controller does not XOR into any bank bit).
  poisoned.bank_functions.back() = (1ull << 20) ^ (1ull << 24);
  poisoned.function_span = gf2::row_echelon(poisoned.bank_functions);
  core::environment env(m, 42);
  const verify_report report = verify_stored_mapping(env, poisoned);
  EXPECT_FALSE(report.verified);
  EXPECT_FALSE(report.failure_reason.empty());
}

TEST(StoreVerify, RefutesWrongRowBits) {
  const dram::machine_spec& m = dram::machine_by_number(1);
  store_entry wrong = entry_for(1);
  // Claim a column bit is a row bit: flipping it alone cannot change the
  // row, so the positive probes must catch the lie.
  wrong.row_bits = m.mapping.row_bits();
  wrong.column_bits = m.mapping.column_bits();
  std::swap(wrong.row_bits.front(), wrong.column_bits.back());
  std::sort(wrong.row_bits.begin(), wrong.row_bits.end());
  std::sort(wrong.column_bits.begin(), wrong.column_bits.end());
  core::environment env(m, 42);
  const verify_report report = verify_stored_mapping(env, wrong);
  EXPECT_FALSE(report.verified);
}

}  // namespace
}  // namespace dramdig::store
