// Golden records: what every job of a fixed set returns, pinned exactly.
//
// The set covers DRAMDig cold on all nine paper machines x 3 seeds, DRAMA
// on the clean machines No.1/4/8, Xiao on No.1/4, one store verification
// job (No.1) and one geometry warm start (No.9 from a stored No.6). Each
// record is the job's `tool_result::to_json` plus its `store_hit` label,
// so recovered mappings, measurement/access counts and virtual time are
// all compared value for value against tests/golden/records.json.
//
// Counts depend on libm: the burst schedule and the Acklam gaussian tail
// call std::log / std::sqrt. records.json therefore also stores a
// toolchain fingerprint — the bit patterns of those calls (and of the
// standard-library distributions the rng wrappers use) on fixed inputs.
// When this build's fingerprint matches, whole records are compared;
// otherwise only the mapping and `verified` are, and the skipped fields
// are named in the test output.
//
// A change that means to shift a record regenerates the file and the diff
// is what gets reviewed:
//   test_golden --regenerate
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/mapping_service.h"
#include "dram/presets.h"
#include "store/mapping_store.h"
#include "util/json.h"
#include "util/log.h"
#include "util/rng.h"

namespace dramdig {
namespace {

constexpr const char* kRecordsPath = DRAMDIG_GOLDEN_RECORDS;

struct golden_record {
  std::string job;        ///< stable id, e.g. "dramdig No.3 seed 2"
  std::string store_hit;  ///< job_outcome::store_hit ("" without a store)
  api::tool_result result;
};

std::string hex_bits(double v) {
  char buf[24];
  std::snprintf(
      buf, sizeof buf, "0x%016llx",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

/// Named bit patterns of every toolchain-dependent floating-point result
/// the simulator's counts rest on. Inputs go through a volatile so the
/// calls happen at run time, not in the compiler's constant folder.
std::vector<std::pair<std::string, std::string>> toolchain_fingerprint() {
  std::vector<std::pair<std::string, std::string>> out;
  for (double x : {1e-300, 1e-17, 0.02425, 0.1, 0.3, 0.5, 0.75, 0.97575,
                   0.999999, 1.0 - 0x1.0p-53}) {
    volatile double in = x;
    out.emplace_back("log(" + hex_bits(x) + ")", hex_bits(std::log(in)));
  }
  for (double x : {2.0, 3.0, 1000.0, 1e-9, 0.3, 74.5}) {
    volatile double in = x;
    out.emplace_back("sqrt(" + hex_bits(x) + ")", hex_bits(std::sqrt(in)));
  }
  // The Acklam inverse CDF itself: both tails and the centre, so a
  // contracted (FMA) polynomial evaluation shows up too.
  for (std::uint64_t word : {0x0000000000001234ull, 0x0123456789abcdefull,
                             0x7fffffffffffffffull, 0xf9ffffffffffffffull,
                             0xfffffffffffff000ull}) {
    volatile std::uint64_t in = word;
    char name[40];
    std::snprintf(name, sizeof name, "acklam(0x%016llx)",
                  static_cast<unsigned long long>(word));
    out.emplace_back(name, hex_bits(counter_gaussian(in)));
  }
  std::mt19937_64 engine(12345);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::uniform_int_distribution<std::uint64_t> below(0, 999983);
  out.emplace_back("uniform_real(mt19937_64(12345))",
                   hex_bits(uniform(engine)));
  out.emplace_back("normal(mt19937_64(12345))", hex_bits(normal(engine)));
  out.emplace_back("uniform_int(mt19937_64(12345))",
                   std::to_string(below(engine)));
  return out;
}

/// Run the golden job set. Every job's result is a pure function of its
/// spec (and of the store state at batch entry), so thread count does not
/// matter.
std::vector<golden_record> run_golden_jobs() {
  std::vector<golden_record> records;
  std::vector<api::job_spec> jobs;
  auto add = [&](const std::string& tool, int machine, std::uint64_t seed) {
    const dram::machine_spec& m = dram::machine_by_number(machine);
    records.push_back(
        {tool + " " + m.label() + " seed " + std::to_string(seed), "", {}});
    jobs.push_back({m, tool, {}, seed});
  };
  for (const dram::machine_spec& m : dram::paper_machines()) {
    for (std::uint64_t seed : {1u, 2u, 3u}) add("dramdig", m.number, seed);
  }
  for (int machine : {1, 4, 8}) add("drama", machine, 1);
  for (int machine : {1, 4}) add("xiao", machine, 1);

  const auto outcomes = api::mapping_service().run(jobs);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    records[i].store_hit = outcomes[i].store_hit;
    records[i].result = outcomes[i].result;
  }

  // Fleet jobs: seed a store with No.1 and No.6, then re-profile No.1
  // (exact hit -> verify) and profile No.9 (No.6's geometry -> warm).
  store::mapping_store fleet;
  const api::mapping_service service({.store = &fleet});
  (void)service.run({{dram::machine_by_number(1), "dramdig", {}, 1},
                     {dram::machine_by_number(6), "dramdig", {}, 1}});
  const auto hits =
      service.run({{dram::machine_by_number(1), "dramdig", {}, 2},
                   {dram::machine_by_number(9), "dramdig", {}, 1}});
  records.push_back({"store verify No.1 seed 2", hits[0].store_hit,
                     hits[0].result});
  records.push_back({"store warm No.9 from No.6 seed 1", hits[1].store_hit,
                     hits[1].result});
  return records;
}

void write_record(json_writer& w, const golden_record& r) {
  w.begin_object();
  w.key("job").value(r.job);
  w.key("store_hit").value(r.store_hit);
  w.key("result");
  r.result.to_json(w);
  w.end_object();
}

std::string render_document(const std::vector<golden_record>& records) {
  json_writer w;
  w.begin_object();
  w.key("fingerprint").begin_object();
  for (const auto& [call, bits] : toolchain_fingerprint()) {
    w.key(call).value(bits);
  }
  w.end_object();
  w.key("records").begin_array();
  for (const golden_record& r : records) write_record(w, r);
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

json_value parse_record(const golden_record& r) {
  json_writer w;
  write_record(w, r);
  return json_value::parse(w.str());
}

/// Leaf-level differences between two parsed trees, as "path: want != got".
void diff(const json_value& want, const json_value& got,
          const std::string& path, std::vector<std::string>& out) {
  auto scalar = [](const json_value& v) -> std::string {
    switch (v.type()) {
      case json_value::kind::null: return "null";
      case json_value::kind::boolean: return v.as_bool() ? "true" : "false";
      case json_value::kind::number: {
        std::ostringstream s;
        s.precision(17);
        s << v.as_double();
        return s.str();
      }
      case json_value::kind::string: return '"' + v.as_string() + '"';
      default: return "<container>";
    }
  };
  if (want.type() != got.type()) {
    out.push_back(path + ": " + scalar(want) + " != " + scalar(got));
    return;
  }
  switch (want.type()) {
    case json_value::kind::object: {
      for (const auto& [key, value] : want.members()) {
        const json_value* other = got.find(key);
        if (other == nullptr) {
          out.push_back(path + "." + key + ": missing");
        } else {
          diff(value, *other, path + "." + key, out);
        }
      }
      for (const auto& [key, value] : got.members()) {
        if (want.find(key) == nullptr) {
          out.push_back(path + "." + key + ": unexpected");
        }
      }
      return;
    }
    case json_value::kind::array: {
      if (want.size() != got.size()) {
        out.push_back(path + ": " + std::to_string(want.size()) +
                      " elements != " + std::to_string(got.size()));
        return;
      }
      for (std::size_t i = 0; i < want.size(); ++i) {
        diff(want[i], got[i], path + "[" + std::to_string(i) + "]", out);
      }
      return;
    }
    case json_value::kind::number:
      if (want.as_double() != got.as_double()) {
        out.push_back(path + ": " + scalar(want) + " != " + scalar(got));
      }
      return;
    default:
      if (scalar(want) != scalar(got)) {
        out.push_back(path + ": " + scalar(want) + " != " + scalar(got));
      }
      return;
  }
}

bool fingerprint_matches(const json_value& stored) {
  const auto current = toolchain_fingerprint();
  if (stored.size() != current.size()) return false;
  for (const auto& [call, bits] : current) {
    const json_value* v = stored.find(call);
    if (v == nullptr || v->as_string() != bits) return false;
  }
  return true;
}

TEST(GoldenRecords, EveryJobMatchesItsRecord) {
  const json_value document = json_value::parse(read_file(kRecordsPath));
  const json_value& stored = document.at("records");
  const bool exact = fingerprint_matches(document.at("fingerprint"));

  const std::vector<golden_record> current = run_golden_jobs();
  ASSERT_EQ(stored.size(), current.size())
      << "the golden job set changed; regenerate with --regenerate";

  std::vector<std::string> skipped;
  for (std::size_t i = 0; i < current.size(); ++i) {
    const json_value& want = stored[i];
    const json_value got = parse_record(current[i]);
    ASSERT_EQ(want.at("job").as_string(), current[i].job);
    std::vector<std::string> differences;
    if (exact) {
      diff(want, got, "", differences);
    } else {
      const json_value& want_result = want.at("result");
      const json_value& got_result = got.at("result");
      for (const auto& [key, value] : want_result.members()) {
        if (key == "mapping" || key == "verified") {
          diff(value, got_result.at(key), ".result." + key, differences);
        } else if (i == 0) {
          skipped.push_back(key);
        }
      }
    }
    for (const std::string& d : differences) {
      ADD_FAILURE() << current[i].job << ": " << d;
    }
  }
  if (!exact) {
    std::string fields = "store_hit";
    for (const std::string& key : skipped) fields += ", " + key;
    std::cout << "[golden] toolchain fingerprint differs from "
              << kRecordsPath
              << ": compared mapping and verified only; skipped " << fields
              << "\n";
  }
}

}  // namespace
}  // namespace dramdig

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  bool regenerate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--regenerate") {
      regenerate = true;
    } else {
      std::cerr << "usage: test_golden [gtest flags] [--regenerate]\n";
      return 2;
    }
  }
  dramdig::set_log_level(dramdig::log_level::warn);
  if (regenerate) {
    dramdig::write_file(dramdig::kRecordsPath,
                        dramdig::render_document(dramdig::run_golden_jobs()));
    std::cout << "wrote " << dramdig::kRecordsPath << "\n";
    return 0;
  }
  return RUN_ALL_TESTS();
}
