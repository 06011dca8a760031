// Argument parsing shared by the example binaries: an optional paper
// machine number (1-9), where the example takes one a seed, and path
// options. Anything else — a flag such as --help, a machine outside 1-9, a
// non-numeric or negative seed, extra arguments, a missing or empty path —
// prints the usage line and exits 2 instead of aborting inside the
// library.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace dramdig::examples {

[[noreturn]] inline void usage_exit(const char* usage) {
  std::fprintf(stderr, "usage: %s\n", usage);
  std::exit(2);
}

/// A whole unsigned decimal token; false on empty input, a sign, trailing
/// characters or overflow.
inline bool parse_u64(const char* text, std::uint64_t& out) {
  if (text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

/// `[machine] [seed]` positionals over `args`, keeping the defaults already
/// in `machine` / `*seed` for omitted ones. Pass seed = nullptr when the
/// example takes no seed.
inline void parse_machine_args(const std::vector<const char*>& args,
                               const char* usage, int& machine,
                               std::uint64_t* seed) {
  const std::size_t max_args = seed != nullptr ? 2 : 1;
  if (args.size() > max_args) usage_exit(usage);
  std::uint64_t value = 0;
  if (!args.empty()) {
    if (!parse_u64(args[0], value) || value < 1 || value > 9) {
      usage_exit(usage);
    }
    machine = static_cast<int>(value);
  }
  if (args.size() > 1) {
    if (!parse_u64(args[1], value)) usage_exit(usage);
    *seed = value;
  }
}

/// A path option at argv[i], given as `NAME PATH` (advancing i) or
/// `NAME=PATH`, read into `path`. False when argv[i] is not that option; a
/// missing or empty path prints the usage line and exits 2, so a bad path
/// fails before the run instead of being ignored.
inline bool parse_path_option(int argc, char** argv, int& i, const char* name,
                              const char* usage, std::string& path) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(argv[i], name, len) != 0) return false;
  if (argv[i][len] == '=') {
    path = argv[i] + len + 1;
  } else if (argv[i][len] == '\0') {
    if (i + 1 >= argc) usage_exit(usage);
    path = argv[++i];
  } else {
    return false;  // a longer option that shares the prefix
  }
  if (path.empty()) usage_exit(usage);
  return true;
}

inline void parse_machine_args(int argc, char** argv, const char* usage,
                               int& machine, std::uint64_t* seed) {
  parse_machine_args(std::vector<const char*>(argv + 1, argv + argc), usage,
                     machine, seed);
}

}  // namespace dramdig::examples
