// The persistent fingerprint -> mapping store: JSON round-trips, exact and
// geometry lookups, upserts, and the degradation contract — a corrupted or
// truncated store file must cost a cold run (empty store + logged warning),
// never a crash.
#include "store/mapping_store.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/environment.h"
#include "dram/presets.h"
#include "store/verify.h"
#include "sysinfo/system_info.h"
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
  e.pool_size = 4096;
  e.bank_count = m.mapping.bank_count();
  e.threshold_ns = 250.5;
  e.history.push_back({"recovered", seed, 2348});
  return e;
}

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
  e.pool_size = 4096;
  e.bank_count = 32;
  e.threshold_ns = 287.12345678901234;
  e.history.push_back({"recovered", 42, 2348});
  e.history.push_back({"verified", 7, 188});
  return e;
}

/// literal_entry() as the schema-v2 writer saved it: one pretty-printed
/// document.
const std::string kV2Document =
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

/// The schema-v3 log header line.
const std::string kV3Header =
    "{\"store\": \"dramdig-mapping-store\", \"version\": 3}\n";

/// literal_entry()'s v3 log record.
const std::string kLiteralRecord =
    "{\"fingerprint\": {\"cpu_model\": \"Intel i7-3770 (test)\", "
    "\"generation\": \"DDR3\", \"total_bytes\": 8589934592, "
    "\"channels\": 2, \"dimms_per_channel\": 1, \"ranks_per_dimm\": 2, "
    "\"banks_per_rank\": 8, \"ecc\": false, "
    "\"hash\": 9463507792138483794, "
    "\"geometry_hash\": 5999634699570172704}, "
    "\"mapping\": {\"bank_functions\": [8256, 278528, 557056, 1114112, "
    "2228224], \"row_bits\": [18, 19, 20, 21], "
    "\"column_bits\": [0, 1, 2, 3, 4, 5], \"address_bits\": 33}, "
    "\"evidence\": {\"pool_size\": 4096, \"bank_count\": 32, "
    "\"threshold_ns\": 287.123456789012}, "
    "\"history\": [{\"kind\": \"recovered\", \"seed\": 42, "
    "\"measurements\": 2348}, {\"kind\": \"verified\", \"seed\": 7, "
    "\"measurements\": 188}]}\n";

/// Rewrite a v2 document as its v1 twin: version 1, no bank_count /
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
    for (int n : {1, 5, 6}) store.put(entry_for(n));
    store.save();
  }
  const std::string full = read_file(path.str());
  ASSERT_EQ(full.compare(0, kV3Header.size(), kV3Header), 0);
  // Every byte-truncation of a saved log: a cut inside the header line
  // loads as empty-with-warning; a cut after it loads exactly the records
  // whose lines are complete, with a warning exactly when the cut falls
  // mid-line (a torn append).
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::string prefix = full.substr(0, len);
    write_file(path.str(), prefix);
    const mapping_store store(path.str());
    if (len < kV3Header.size()) {
      EXPECT_EQ(store.size(), 0u) << "prefix length " << len;
      EXPECT_FALSE(store.load_warning().empty()) << "prefix length " << len;
    } else {
      const std::string committed = prefix.substr(0, prefix.rfind('\n') + 1);
      EXPECT_EQ(store.to_json(), committed) << "prefix length " << len;
      EXPECT_EQ(store.size(), static_cast<std::size_t>(std::count(
                                  committed.begin(), committed.end(), '\n')) -
                                  1)
          << "prefix length " << len;
      EXPECT_EQ(store.load_warning().empty(), committed.size() == len)
          << "prefix length " << len;
    }
    // The file stays on disk untouched until the next save().
    EXPECT_EQ(read_file(path.str()), prefix);
  }
}

TEST(MappingStore, FailedSaveLeavesPreviousFileLoadable) {
  // A rewrite writes a sibling temp file and renames it over the store,
  // so a rewrite that dies before the rename never touches the saved log.
  // `store` loaded an absent file, so its first save is a rewrite; a
  // directory squatting on the temp path makes it fail.
  temp_path path("failed_save");
  mapping_store store(path.str());
  {
    mapping_store earlier(path.str());
    earlier.put(entry_for(1));
    earlier.put(entry_for(2));
    earlier.save();
  }
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
  // The failed save left `store` unable to vouch for the file: the next
  // save rewrites it whole, and the last writer wins.
  store.save();
  EXPECT_EQ(read_file(path.str()), store.to_json());
}

/// Runs `save` with the process's file-size limit at `cap` bytes and
/// SIGXFSZ ignored, so a write() past the cap stops short or fails with
/// EFBIG instead of killing the process; the limit is lifted afterwards.
void with_file_size_cap(rlim_t cap, const std::function<void()>& save) {
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  if (saved.rlim_max != RLIM_INFINITY && saved.rlim_max < cap) {
    GTEST_SKIP() << "hard RLIMIT_FSIZE below the log size";
  }
  void (*const old_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
  rlimit capped = saved;
  capped.rlim_cur = cap;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  save();
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);
}

TEST(MappingStore, FailedAppendLeavesTornTailTheNextSaveRewrites) {
  temp_path path("torn_append");
  mapping_store store(path.str());
  for (int n : {1, 4}) store.put(entry_for(n));
  store.save();
  store_entry updated = entry_for(1, 43);
  updated.history.push_back({"verified", 43, 700});

  // An append refused outright (the cap is the file's size) leaves the
  // file as it was, and the next save rewrites the whole log anyway.
  const std::string before = read_file(path.str());
  store.put(updated);
  with_file_size_cap(before.size(), [&] {
    EXPECT_THROW(store.save(), std::runtime_error);
  });
  if (IsSkipped()) return;
  ASSERT_EQ(read_file(path.str()), before);
  store.save();
  EXPECT_EQ(read_file(path.str()), store.to_json());

  // A cap a few bytes above the log makes the append's one write() stop
  // short: a real torn record at the end of the file.
  const std::string committed = read_file(path.str());
  updated.history.push_back({"verified", 44, 702});
  store.put(updated);
  store.put(entry_for(6));
  const rlim_t cap = committed.size() + 10;
  with_file_size_cap(cap, [&] {
    EXPECT_THROW(store.save(), std::runtime_error);
  });
  if (IsSkipped()) return;
  const std::string torn = read_file(path.str());
  ASSERT_EQ(torn.size(), cap);
  ASSERT_EQ(torn.compare(0, committed.size(), committed), 0);
  {
    // A store that loads the torn file keeps every complete record and
    // does not append after the torn bytes: its first save rewrites.
    mapping_store reader(path.str());
    EXPECT_NE(reader.load_warning().find("torn record"), std::string::npos)
        << reader.load_warning();
    EXPECT_EQ(reader.to_json(), committed);
    reader.put(entry_for(8));
    reader.save();
    EXPECT_EQ(read_file(path.str()), reader.to_json());
  }
  // The failed store's next save rewrites too (last writer wins).
  store.save();
  EXPECT_EQ(read_file(path.str()), store.to_json());
  const mapping_store reloaded(path.str());
  EXPECT_TRUE(reloaded.load_warning().empty());
  EXPECT_EQ(reloaded.to_json(), store.to_json());
  EXPECT_EQ(reloaded.size(), 3u);
}

TEST(MappingStore, FileChangedByAnotherWriterIsRewritten) {
  temp_path path("other_writer");
  mapping_store store(path.str());
  for (int n : {1, 4}) store.put(entry_for(n));
  store.save();

  // Grown: a second store appends to the same file. This store's next
  // save sees a size it did not write and rewrites its own view.
  {
    mapping_store other(path.str());
    other.put(entry_for(6));
    other.save();
  }
  store.put(entry_for(8));
  store.save();
  EXPECT_EQ(read_file(path.str()), store.to_json());

  // Replaced: another writer puts a different, shorter log in its place.
  mapping_store replacement;
  replacement.put(entry_for(2));
  write_file(path.str(), replacement.to_json());
  store.put(entry_for(4, 77));
  store.save();
  EXPECT_EQ(read_file(path.str()), store.to_json());
  const mapping_store reloaded(path.str());
  EXPECT_TRUE(reloaded.load_warning().empty());
  EXPECT_EQ(reloaded.to_json(), store.to_json());
  EXPECT_FALSE(
      reloaded.find_exact(sysinfo::fingerprint(dram::machine_by_number(2))));
}

TEST(MappingStore, V2DocumentLoadsAndFirstSaveWritesV3) {
  temp_path path("v2");
  write_file(path.str(), kV2Document);
  mapping_store store(path.str());
  EXPECT_TRUE(store.load_warning().empty());
  ASSERT_EQ(store.size(), 1u);
  const auto hit = store.find_exact(literal_entry().fingerprint);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->bank_count, 32u);
  EXPECT_EQ(hit->threshold_ns, 287.123456789012);
  EXPECT_EQ(hit->history.size(), 2u);
  // The store cannot append to a document: the first save rewrites it as
  // a v3 log of the same entries.
  store.save();
  EXPECT_EQ(read_file(path.str()), kV3Header + kLiteralRecord);
  const mapping_store reloaded(path.str());
  EXPECT_TRUE(reloaded.load_warning().empty());
  EXPECT_EQ(reloaded.to_json(), store.to_json());
}

TEST(MappingStore, OverwritesKeepTheLogWithinTwiceItsCompactedSize) {
  // 200 saves, each of one overwritten entry: appends grow the file, and
  // a rewrite compacts it before it passes twice the compacted log.
  temp_path path("compaction");
  mapping_store store(path.str());
  for (int n : {1, 4, 6}) store.put(entry_for(n));
  store.save();
  std::size_t appends = 0;
  std::size_t rewrites = 0;
  std::size_t previous = read_file(path.str()).size();
  for (std::uint64_t round = 0; round < 200; ++round) {
    store_entry e = entry_for(4, 100 + round);
    e.history.push_back({"verified", round, 700 + round});
    store.put(e);
    store.save();
    const std::string file = read_file(path.str());
    const std::string compacted = store.to_json();
    const std::size_t record = compacted.size() - compacted.rfind(
                                                      '\n', compacted.size() - 2);
    EXPECT_LE(file.size(), 2 * compacted.size() + record) << "round " << round;
    if (file == compacted) {
      ++rewrites;
    } else {
      EXPECT_GT(file.size(), previous);
      ++appends;
    }
    previous = file.size();
  }
  // Three entries of about one record each: a rewrite leaves room for
  // about three appends before the file would pass twice its compacted
  // size, so most saves stay appends.
  EXPECT_GT(rewrites, 0u);
  EXPECT_GE(appends, 2 * rewrites);
  const mapping_store reloaded(path.str());
  EXPECT_TRUE(reloaded.load_warning().empty());
  EXPECT_EQ(reloaded.to_json(), store.to_json());
}

TEST(MappingStore, V1DocumentLoadsAsSpanOnlyPriorWithoutWarning) {
  // A store written before the evidence schema: version 1, an evidence
  // block of only {digest, pool_size}. It must load silently — migration
  // is not a degradation — with the v2 evidence fields reading as "no
  // claim", i.e. exactly the span-only warm prior v1 always provided.
  temp_path path("v1");
  write_file(path.str(), as_v1_document(kV2Document));
  mapping_store store(path.str());
  EXPECT_TRUE(store.load_warning().empty());
  ASSERT_EQ(store.size(), 1u);
  const auto hit = store.find_exact(literal_entry().fingerprint);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->bank_functions, literal_entry().bank_functions);
  EXPECT_EQ(hit->pool_size, 4096u);
  EXPECT_EQ(hit->bank_count, 0u);
  EXPECT_EQ(hit->threshold_ns, 0.0);
  // The next save() upgrades the file in place to a version-3 log.
  store.save();
  const std::string log = read_file(path.str());
  EXPECT_EQ(log.compare(0, kV3Header.size(), kV3Header), 0);
  EXPECT_EQ(log, store.to_json());
  const mapping_store reloaded(path.str());
  EXPECT_TRUE(reloaded.load_warning().empty());
  EXPECT_EQ(reloaded.to_json(), log);
}

TEST(MappingStore, V3RecordWithEvidenceDigestLoadsWithoutWarning) {
  // Logs written while entries carried an evidence digest have a
  // "digest" key in every evidence block. It loads silently and is
  // dropped: the reloaded store renders today's record.
  temp_path path("v3digest");
  std::string record = kLiteralRecord;
  const std::string evidence = "\"evidence\": {";
  record.insert(record.find(evidence) + evidence.size(),
                "\"digest\": 5545060604729730806, ");
  write_file(path.str(), kV3Header + record);
  const mapping_store store(path.str());
  EXPECT_TRUE(store.load_warning().empty());
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.to_json(), kV3Header + kLiteralRecord);
}

TEST(MappingStore, RecordWithFunctionSpanLoadsWithoutWarning) {
  // Logs written while entries stored a copy of their span have a
  // "function_span" key after the mapping. It loads silently and is
  // dropped, even when it contradicts the bank functions (the fingerprint
  // hashes do not cover it): the reloaded store renders today's record.
  temp_path path("v3span");
  std::string record = kLiteralRecord;
  const std::string evidence = "\"evidence\": {";
  record.insert(record.find(evidence),
                "\"function_span\": [8256, 278528, 557056, 1114112, 8], ");
  write_file(path.str(), kV3Header + record);
  const mapping_store store(path.str());
  EXPECT_TRUE(store.load_warning().empty());
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.to_json(), kV3Header + kLiteralRecord);
  EXPECT_EQ(store.entries()[0].bank_functions, literal_entry().bank_functions);
}

TEST(MappingStore, V2WithTruncatedEvidenceBlockDegradesToV1Behavior) {
  // A version-2 header whose evidence block lost its v2 keys (e.g. a
  // document assembled by an older writer, or hand-edited): the optional
  // keys read as absent and the entry behaves exactly like a v1 load.
  temp_path path("v2partial");
  std::string doc = as_v1_document(kV2Document);
  const std::size_t v = doc.find("\"version\": 1");
  ASSERT_NE(v, std::string::npos);
  doc.replace(v + 11, 1, "2");
  write_file(path.str(), doc);
  const mapping_store store(path.str());
  EXPECT_TRUE(store.load_warning().empty());
  ASSERT_EQ(store.size(), 1u);
  const auto hit = store.find_exact(literal_entry().fingerprint);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->bank_count, 0u);
  EXPECT_EQ(hit->threshold_ns, 0.0);
}

TEST(MappingStore, TruncatedV1FileDegradesToColdWithWarning) {
  // The byte-truncation contract must hold for legacy documents too: any
  // prefix of a v1 store loads as empty-with-warning, never a crash and
  // never a partially-migrated entry.
  temp_path path("truncated_v1");
  const std::string full = as_v1_document(kV2Document);
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
  // Unknown versions, as a whole document or as a log header, and a v3
  // header on a whole document.
  for (const std::string& text : std::vector<std::string>{
           R"({"store": "dramdig-mapping-store", "version": 999, "entries": []})",
        R"({"store": "dramdig-mapping-store", "version": 3, "entries": []})",
        "{\"store\": \"dramdig-mapping-store\", \"version\": 4}\n",
        "{\"store\": \"something-else\", \"version\": 3}\n" + kLiteralRecord}) {
    write_file(path.str(), text);
    const mapping_store store(path.str());
    EXPECT_EQ(store.size(), 0u) << text;
    EXPECT_FALSE(store.load_warning().empty()) << text;
  }
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

// --- byte-exact logs ---------------------------------------------------------
//
// The literals below pin the v3 log byte for byte: the header line, and
// each entry's record as put() renders and caches it.

TEST(MappingStoreBytes, EmptyStoreDocument) {
  const mapping_store store;
  EXPECT_EQ(store.to_json(), kV3Header);
  EXPECT_EQ(store.to_json(),
            "{\"store\": \"dramdig-mapping-store\", \"version\": 3}\n");
}

TEST(MappingStoreBytes, OneEntryDocument) {
  mapping_store store;
  store.put(literal_entry());
  const std::string expected = kV3Header + kLiteralRecord;
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
  // append, then an overwrite of the first entry: each cached record must
  // land in its slot.
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

TEST(MappingStoreBytes, SaveAppendsTheRecordsPutSinceTheLastSave) {
  // Once the store vouches for its file, a save adds exactly the records
  // of the entries put since the last save, in store order, after the
  // bytes already there; a reload replays them into the live store.
  temp_path path("bytes_append");
  mapping_store store(path.str());
  for (int n : {1, 4, 6}) store.put(entry_for(n));
  store.save();
  const std::string before = read_file(path.str());
  store.put(literal_entry());
  store_entry longer = entry_for(4, 77);
  longer.history.push_back({"verified", 78, 190});
  store.put(longer);
  store.save();

  mapping_store records;
  records.put(longer);
  records.put(literal_entry());
  const std::string appended = records.to_json().substr(kV3Header.size());
  EXPECT_EQ(read_file(path.str()), before + appended);
  // A save with nothing put writes nothing.
  store.save();
  EXPECT_EQ(read_file(path.str()), before + appended);
  const mapping_store reloaded(path.str());
  EXPECT_TRUE(reloaded.load_warning().empty());
  EXPECT_EQ(reloaded.to_json(), store.to_json());
  EXPECT_EQ(reloaded.entries()[1].history.size(), 2u);
}

TEST(MappingStoreBytes, DegradedLoadThenPutSavesOneEntryDocument) {
  // A damaged header, or a damaged record in the middle of the log, fails
  // the load: every entry is dropped with its cached record, so the next
  // save rewrites the file with only what was put after it.
  temp_path path("bytes_degraded");
  {
    mapping_store store(path.str());
    for (int n : {1, 2, 3}) store.put(entry_for(n));
    store.save();
  }
  const std::string full = read_file(path.str());
  const std::size_t second = full.find('\n', kV3Header.size()) + 1;
  std::string bad_header = full;
  bad_header.replace(bad_header.find("mapping-store"), 7, "mapXing");
  std::string bad_middle = full;
  bad_middle.erase(bad_middle.find('\n', second) - 1, 1);  // a record's '}'
  for (const std::string& damaged : {bad_header, bad_middle}) {
    write_file(path.str(), damaged);
    mapping_store store(path.str());
    ASSERT_FALSE(store.load_warning().empty());
    ASSERT_EQ(store.size(), 0u);
    store.put(literal_entry());
    store.save();

    EXPECT_EQ(read_file(path.str()), kV3Header + kLiteralRecord);
    const mapping_store reloaded(path.str());
    EXPECT_TRUE(reloaded.load_warning().empty());
    EXPECT_EQ(reloaded.size(), 1u);
  }
}

TEST(MappingStore, SaveWithoutPathIsNoOp) {
  mapping_store store;
  store.put(entry_for(1));
  EXPECT_NO_THROW(store.save());
}

TEST(StoreVerify, ConfirmsTruthfulEntry) {
  // Every Table II truth passes the zero-measurement gate (the paper's
  // domain knowledge fixes its counts) and the designed probes.
  for (int n = 1; n <= 9; ++n) {
    const dram::machine_spec& m = dram::machine_by_number(n);
    core::environment env(m, 42);
    const verify_report report = verify_stored_mapping(env, entry_for(n));
    EXPECT_TRUE(report.verified) << m.label() << ": "
                                 << report.failure_reason;
    EXPECT_EQ(report.mismatches, 0u) << m.label();
    EXPECT_GT(report.positives_tested, 0u) << m.label();
    EXPECT_GT(report.negatives_tested, 0u) << m.label();
    EXPECT_GT(report.totals.measurements, 0u) << m.label();
  }
}

TEST(StoreVerify, RefutesPoisonedMask) {
  const dram::machine_spec& m = dram::machine_by_number(1);
  store_entry poisoned = entry_for(1);
  // Replace one stored function, (16,19), with a wrong mask that still
  // makes a bijection, (16,20): the host-side gate passes it, so only the
  // designed probes can refute it.
  poisoned.bank_functions.back() = (1ull << 16) ^ (1ull << 20);
  ASSERT_TRUE(poisoned.mapping().is_bijective());
  ASSERT_FALSE(poisoned.mapping().equivalent_to(m.mapping));
  core::environment env(m, 42);
  const verify_report report = verify_stored_mapping(env, poisoned);
  EXPECT_FALSE(report.verified);
  EXPECT_GT(report.deltas_tested, 0u);
  EXPECT_GT(report.totals.measurements, 0u);
  EXPECT_FALSE(report.failure_reason.empty());
}

TEST(StoreVerify, RefutesNonBijectiveClaimWithoutMeasuring) {
  // The top row bit dropped: every function and every other bit is right,
  // but the claim maps two addresses onto each DRAM location. The gate
  // refutes it before calibration, so the job costs no measurement.
  const dram::machine_spec& m = dram::machine_by_number(1);
  store_entry dropped = entry_for(1);
  dropped.row_bits.pop_back();
  ASSERT_FALSE(dropped.mapping().is_bijective());
  core::environment env(m, 42);
  const verify_report report = verify_stored_mapping(env, dropped);
  EXPECT_FALSE(report.verified);
  EXPECT_EQ(report.failure_reason, "stored mapping is not a bijection");
  EXPECT_EQ(report.totals.measurements, 0u);
  EXPECT_EQ(report.deltas_tested, 0u);
  EXPECT_EQ(env.mach().controller().measurement_count(), 0u);

  // The (20,24) mask of the wrong-function case is not a bijection on
  // No.1 either (bit 16 is left uncovered): the gate catches it too.
  store_entry poisoned = entry_for(1);
  poisoned.bank_functions.back() = (1ull << 20) ^ (1ull << 24);
  core::environment env2(m, 42);
  EXPECT_EQ(verify_stored_mapping(env2, poisoned).failure_reason,
            "stored mapping is not a bijection");
}

TEST(StoreVerify, RefutesClaimsThatContradictDomainKnowledgeWithoutMeasuring) {
  // Bijective claims whose geometry the machine's system information and
  // DIMM spec rule out: refuted before calibration, at no measurement,
  // with the disagreeing count named.
  const dram::machine_spec& m = dram::machine_by_number(1);
  const auto refute = [&](const store_entry& claim) {
    EXPECT_TRUE(claim.mapping().is_bijective());
    core::environment env(m, 42);
    const verify_report report = verify_stored_mapping(env, claim);
    EXPECT_FALSE(report.verified);
    EXPECT_EQ(report.totals.measurements, 0u);
    EXPECT_EQ(report.deltas_tested, 0u);
    EXPECT_EQ(env.mach().controller().measurement_count(), 0u);
    return report.failure_reason;
  };

  // The top row bit claimed as a one-bit bank function: twice the banks.
  const std::size_t functions = m.mapping.bank_functions().size();
  store_entry extra_function = entry_for(1);
  extra_function.bank_functions.push_back(std::uint64_t{1}
                                          << extra_function.row_bits.back());
  extra_function.row_bits.pop_back();
  EXPECT_EQ(refute(extra_function),
            "stored mapping claims " + std::to_string(functions + 1) +
                " bank functions where a bank count of " +
                std::to_string(m.mapping.bank_count()) + " gives " +
                std::to_string(functions));

  // The lowest row bit claimed as a column bit.
  store_entry moved_row = entry_for(1);
  const unsigned lowest_row = moved_row.row_bits.front();
  moved_row.row_bits.erase(moved_row.row_bits.begin());
  moved_row.column_bits.insert(
      std::upper_bound(moved_row.column_bits.begin(),
                       moved_row.column_bits.end(), lowest_row),
      lowest_row);
  EXPECT_EQ(refute(moved_row),
            "stored mapping claims " +
                std::to_string(m.mapping.row_bits().size() - 1) +
                " row bits where the DIMM spec gives " +
                std::to_string(m.mapping.row_bits().size()));
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
