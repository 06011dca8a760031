// Perf-regression guard over a freshly emitted BENCH_micro.json: CI runs
// the smoke bench, then this checker, and the build fails when a tracked
// number drops below its floor or an identity flag flips. The floors live
// in one checked-in file, bench/floors.json, next to the reason each one
// sits where it does. Every floor there must be read by a check below and
// have its reason, and every reason must belong to a floor, so deleting a
// check cannot leave its floor behind unnoticed.
//
// The guard deliberately does not link the library (it must stay a dumb
// reader even if the emitter is broken), so instead of util/json.h's
// parser it scans for `"key": value` inside a named flat section — exactly
// the shape util/json.h emits, and the shape of floors.json.
//
// Usage: bench_guard BENCH_micro.json
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace {

/// Value text of `"key": ...` inside `section`'s object. Sections are flat
/// (no nested objects), so a section extends to the first closing brace
/// after its opening one — bounding the key search there keeps a missing
/// key from silently matching a later section.
std::string value_after(const std::string& doc, const std::string& section,
                        const std::string& key) {
  const std::size_t at = doc.find("\"" + section + "\"");
  if (at == std::string::npos) return {};
  const std::size_t open = doc.find('{', at);
  if (open == std::string::npos) return {};
  const std::size_t close = doc.find('}', open);
  const std::size_t k = doc.find("\"" + key + "\"", at);
  if (k == std::string::npos || (close != std::string::npos && k > close)) {
    return {};
  }
  std::size_t v = doc.find(':', k);
  if (v == std::string::npos) return {};
  ++v;
  while (v < doc.size() && (doc[v] == ' ' || doc[v] == '\t')) ++v;
  std::size_t end = v;
  while (end < doc.size() && doc[end] != ',' && doc[end] != '\n' &&
         doc[end] != '}') {
    ++end;
  }
  return doc.substr(v, end - v);
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// Keys of `section`'s flat object. String values are skipped
/// whole; the section ends at its first closing brace, as in value_after.
std::set<std::string> keys_of(const std::string& doc,
                              const std::string& section) {
  std::set<std::string> keys;
  const std::size_t at = doc.find("\"" + section + "\"");
  if (at == std::string::npos) return keys;
  std::size_t i = doc.find('{', at);
  const std::size_t close = doc.find('}', i);
  if (i == std::string::npos || close == std::string::npos) return keys;
  // Alternate key, ':', value up to the next ',' outside a string.
  while ((i = doc.find('"', i)) < close) {
    const std::size_t end = doc.find('"', i + 1);
    if (end == std::string::npos) break;
    keys.insert(doc.substr(i + 1, end - i - 1));
    i = doc.find(':', end);
    if (i == std::string::npos) break;
    for (bool quoted = false; ++i < close;) {
      if (doc[i] == '\\' && quoted) {
        ++i;
      } else if (doc[i] == '"') {
        quoted = !quoted;
      } else if (doc[i] == ',' && !quoted) {
        break;
      }
    }
  }
  return keys;
}

/// The checks over one bench record, counting failures and the floors
/// they read.
struct guard {
  std::string doc, floors;
  std::set<std::string> floors_read;
  int failures = 0;

  /// `section.key` of the bench record must be at least floors.json's
  /// `floors.floor`.
  void at_least(const std::string& section, const std::string& key,
                const std::string& floor) {
    floors_read.insert(floor);
    const std::string floor_text = value_after(floors, "floors", floor);
    const std::string text = value_after(doc, section, key);
    if (floor_text.empty() || text.empty()) {
      std::fprintf(stderr, "guard: %s.%s or floor %s missing\n",
                   section.c_str(), key.c_str(), floor.c_str());
      ++failures;
      return;
    }
    const double min = std::strtod(floor_text.c_str(), nullptr);
    const double value = std::strtod(text.c_str(), nullptr);
    if (value < min) {
      std::fprintf(stderr, "guard: %s.%s %.4g below floor %s = %.4g\n",
                   section.c_str(), key.c_str(), value, floor.c_str(), min);
      ++failures;
      return;
    }
    std::printf("guard: %s.%s %.4g (floor %s = %.4g) ok\n", section.c_str(),
                key.c_str(), value, floor.c_str(), min);
  }

  void is_true(const std::string& section, const std::string& key) {
    const std::string text = value_after(doc, section, key);
    if (text.substr(0, 4) != "true") {
      std::fprintf(stderr, "guard: %s.%s is '%s', want true\n",
                   section.c_str(), key.c_str(), text.c_str());
      ++failures;
      return;
    }
    std::printf("guard: %s.%s ok\n", section.c_str(), key.c_str());
  }

  /// floors.json's floors and reasons pair up, and no floor is unread.
  void floors_all_read() {
    const std::set<std::string> listed = keys_of(floors, "floors");
    const std::set<std::string> why = keys_of(floors, "why");
    for (const std::string& name : listed) {
      if (!floors_read.contains(name)) {
        std::fprintf(stderr, "guard: floor %s is read by no check\n",
                     name.c_str());
        ++failures;
      }
      if (!why.contains(name)) {
        std::fprintf(stderr, "guard: floor %s has no why\n", name.c_str());
        ++failures;
      }
    }
    for (const std::string& name : why) {
      if (!listed.contains(name)) {
        std::fprintf(stderr, "guard: why %s names no floor\n", name.c_str());
        ++failures;
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || argv[1][0] == '-') {
    std::fprintf(stderr, "usage: bench_guard BENCH_micro.json\n");
    return 2;
  }
  const std::string path = argv[1];
  const std::string floors_path = DRAMDIG_BENCH_FLOORS;
  guard g;
  if (!read_file(path, g.doc)) {
    std::fprintf(stderr, "guard: cannot read %s\n", path.c_str());
    return 2;
  }
  if (!read_file(floors_path, g.floors)) {
    std::fprintf(stderr, "guard: cannot read %s\n", floors_path.c_str());
    return 2;
  }

  // The batch-native hot path must clear a raw throughput floor (simulated
  // measurements per host second).
  g.at_least("hot_path_throughput", "min_mps_100k", "hot_throughput");
  // The dispatched decode kernel must match the pinned scalar kernel bit
  // for bit without losing to it.
  g.at_least("decode_simd", "speedup", "decode_speedup");
  g.is_true("decode_simd", "identical_results");
  // The in-repo rng engine must reproduce std::mt19937_64 draw for draw
  // and never lose to it.
  g.at_least("setup_path", "rng_speedup", "rng_speedup");
  g.is_true("setup_path", "identical_draws");
  // The partition's host bookkeeping must not swamp the simulated
  // measurements it schedules: measurements x sim ns over job wall, both
  // from one process.
  g.at_least("partition_host", "sim_share", "partition_sim_share");
  // Fleet mapping store: verify hits and evidence warm starts must save at
  // least their floors vs a cold recovery while reproducing the stored
  // mapping bit-identically.
  g.is_true("fleet_warm_start", "mapping_identical");
  g.is_true("fleet_warm_start", "warm_mapping_identical");
  g.is_true("fleet_warm_start", "hits_ok");
  g.at_least("fleet_warm_start", "verify_reduction", "warm_reduction");
  g.at_least("fleet_warm_start", "warm_evidence_reduction",
             "warm_evidence_reduction");
  g.floors_all_read();

  if (g.failures > 0) {
    std::fprintf(stderr, "guard: %d check(s) failed on %s\n", g.failures,
                 path.c_str());
    return 1;
  }
  std::printf("guard: all checks passed on %s\n", path.c_str());
  return 0;
}
