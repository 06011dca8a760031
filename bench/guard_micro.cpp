// Perf-regression guard over a freshly emitted BENCH_micro.json: CI runs
// the smoke bench, then this checker, and the build fails when a tracked
// number drops below its floor or an identity flag flips. The floors live
// in one checked-in file, bench/floors.json, next to the reason each one
// sits where it does.
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

/// `section.key` of the bench record must be at least floors.json's
/// `floors.floor`.
void check_floor(const std::string& doc, const std::string& floors,
                 const std::string& section, const std::string& key,
                 const std::string& floor, int& failures) {
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

void check_true(const std::string& doc, const std::string& section,
                const std::string& key, int& failures) {
  const std::string text = value_after(doc, section, key);
  if (text.substr(0, 4) != "true") {
    std::fprintf(stderr, "guard: %s.%s is '%s', want true\n", section.c_str(),
                 key.c_str(), text.c_str());
    ++failures;
    return;
  }
  std::printf("guard: %s.%s ok\n", section.c_str(), key.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || argv[1][0] == '-') {
    std::fprintf(stderr, "usage: bench_guard BENCH_micro.json\n");
    return 2;
  }
  const std::string path = argv[1];
  const std::string floors_path = DRAMDIG_BENCH_FLOORS;
  std::string doc, floors;
  if (!read_file(path, doc)) {
    std::fprintf(stderr, "guard: cannot read %s\n", path.c_str());
    return 2;
  }
  if (!read_file(floors_path, floors)) {
    std::fprintf(stderr, "guard: cannot read %s\n", floors_path.c_str());
    return 2;
  }

  int failures = 0;
  // The batch-native hot path must beat the scalar measure_pair loop and
  // clear a raw throughput floor (simulated measurements per host second).
  check_floor(doc, floors, "batched_measurement", "wall_speedup",
              "batch_speedup", failures);
  check_floor(doc, floors, "hot_path_throughput", "min_mps_100k",
              "hot_throughput", failures);
  // The shard-parallel counter tail must not decay under an
  // oversubscribed pool, and the dispatched decode kernel must match the
  // pinned scalar kernel bit for bit without losing to it.
  check_floor(doc, floors, "counter_tail", "scaling_8t_vs_1t", "tail_scaling",
              failures);
  check_floor(doc, floors, "decode_simd", "speedup", "decode_speedup",
              failures);
  check_true(doc, "decode_simd", "identical_results", failures);
  // The in-repo rng engine must reproduce std::mt19937_64 draw for draw
  // and never lose to it.
  check_floor(doc, floors, "setup_path", "rng_speedup", "rng_speedup",
              failures);
  check_true(doc, "setup_path", "identical_draws", failures);
  // Fleet mapping store: verify hits and evidence warm starts must save at
  // least their floors vs a cold recovery while reproducing the stored
  // mapping bit-identically.
  check_true(doc, "fleet_warm_start", "mapping_identical", failures);
  check_true(doc, "fleet_warm_start", "warm_mapping_identical", failures);
  check_true(doc, "fleet_warm_start", "hits_ok", failures);
  check_floor(doc, floors, "fleet_warm_start", "verify_reduction",
              "warm_reduction", failures);
  check_floor(doc, floors, "fleet_warm_start", "warm_evidence_reduction",
              "warm_evidence_reduction", failures);

  if (failures > 0) {
    std::fprintf(stderr, "guard: %d check(s) failed on %s\n", failures,
                 path.c_str());
    return 1;
  }
  std::printf("guard: all checks passed on %s\n", path.c_str());
  return 0;
}
