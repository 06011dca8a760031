#include "store/mapping_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/expect.h"
#include "util/json.h"
#include "util/log.h"

namespace dramdig::store {

namespace {

constexpr const char* kStoreTag = "dramdig-mapping-store";
/// Written version: the append-only log. Versions 1 and 2 were whole
/// documents and still load; v2 added the evidence bank_count/threshold_ns
/// keys, which read as absent -> zero = no claim on v1.
constexpr std::uint64_t kStoreVersion = 3;
constexpr std::uint64_t kOldestLoadableVersion = 1;
constexpr std::uint64_t kNewestDocumentVersion = 2;
/// save() rewrites the compacted log instead of appending once the file
/// would grow past this many times the compacted log's size.
constexpr std::uint64_t kCompactionFactor = 2;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

dram::ddr_generation generation_from(const std::string& name) {
  if (name == "DDR3") return dram::ddr_generation::ddr3;
  if (name == "DDR4") return dram::ddr_generation::ddr4;
  throw json_parse_error("unknown DDR generation '" + name + "'");
}

void write_fingerprint(json_writer& w, const sysinfo::machine_fingerprint& fp,
                       std::uint64_t hash, std::uint64_t geometry_hash) {
  w.begin_object();
  w.key("cpu_model").value(fp.cpu_model);
  w.key("generation").value(to_string(fp.generation));
  w.key("total_bytes").value(fp.total_bytes);
  w.key("channels").value(fp.channels);
  w.key("dimms_per_channel").value(fp.dimms_per_channel);
  w.key("ranks_per_dimm").value(fp.ranks_per_dimm);
  w.key("banks_per_rank").value(fp.banks_per_rank);
  w.key("ecc").value(fp.ecc);
  // Derived, and cross-checked on load: a bit flip anywhere in the entry's
  // identity fields turns into a hash mismatch instead of a silent
  // mis-keyed store.
  w.key("hash").value(hash);
  w.key("geometry_hash").value(geometry_hash);
  w.end_object();
}

sysinfo::machine_fingerprint read_fingerprint(const json_value& v) {
  sysinfo::machine_fingerprint fp;
  fp.cpu_model = v.at("cpu_model").as_string();
  fp.generation = generation_from(v.at("generation").as_string());
  fp.total_bytes = v.at("total_bytes").as_u64();
  fp.channels = static_cast<unsigned>(v.at("channels").as_u64());
  fp.dimms_per_channel = static_cast<unsigned>(v.at("dimms_per_channel").as_u64());
  fp.ranks_per_dimm = static_cast<unsigned>(v.at("ranks_per_dimm").as_u64());
  fp.banks_per_rank = static_cast<unsigned>(v.at("banks_per_rank").as_u64());
  fp.ecc = v.at("ecc").as_bool();
  return fp;
}

/// The log's first line.
const std::string& header_line() {
  static const std::string line = [] {
    json_writer w(json_writer::layout::compact);
    w.begin_object();
    w.key("store").value(kStoreTag);
    w.key("version").value(kStoreVersion);
    w.end_object();
    return w.str();
  }();
  return line;
}

/// Throws unless `doc` carries the store tag and a version in [lo, hi].
void check_header(const json_value& doc, std::uint64_t lo, std::uint64_t hi) {
  if (doc.at("store").as_string() != kStoreTag) {
    throw json_parse_error("not a mapping-store document");
  }
  const std::uint64_t version = doc.at("version").as_u64();
  if (version < lo || version > hi) {
    throw json_parse_error("store version " + std::to_string(version) +
                           " where " + std::to_string(lo) + "-" +
                           std::to_string(hi) + " was expected");
  }
}

/// The file's first line parsed, when it is a log header: one complete
/// JSON object without an "entries" member. A v1/v2 document's first line
/// is a bare "{", or the whole document with its entries.
std::optional<json_value> log_header(std::string_view first_line) {
  try {
    json_value v = json_value::parse(first_line);
    if (v.type() == json_value::kind::object && v.find("entries") == nullptr) {
      return v;
    }
  } catch (const json_parse_error&) {
  }
  return std::nullopt;
}

/// One entry as its log line: compact, '\n'-terminated.
std::string render_entry(const store_entry& e, std::uint64_t hash,
                         std::uint64_t geometry_hash) {
  json_writer w(json_writer::layout::compact);
  w.begin_object();
  w.key("fingerprint");
  write_fingerprint(w, e.fingerprint, hash, geometry_hash);
  w.key("mapping").begin_object();
  w.key("bank_functions").begin_array();
  for (const std::uint64_t f : e.bank_functions) w.value(f);
  w.end_array();
  w.key("row_bits").begin_array();
  for (const unsigned b : e.row_bits) w.value(b);
  w.end_array();
  w.key("column_bits").begin_array();
  for (const unsigned b : e.column_bits) w.value(b);
  w.end_array();
  w.key("address_bits").value(e.address_bits);
  w.end_object();
  w.key("evidence").begin_object();
  w.key("pool_size").value(e.pool_size);
  w.key("bank_count").value(e.bank_count);
  w.key("threshold_ns").value(e.threshold_ns);
  w.end_object();
  w.key("history").begin_array();
  for (const verification_event& h : e.history) {
    w.begin_object();
    w.key("kind").value(h.kind);
    w.key("seed").value(h.seed);
    w.key("measurements").value(h.measurements);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

template <typename T>
std::vector<T> read_number_array(const json_value& v) {
  std::vector<T> out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out.push_back(static_cast<T>(v[i].as_u64()));
  }
  return out;
}

store_entry read_entry(const json_value& e) {
  store_entry entry;
  entry.fingerprint = read_fingerprint(e.at("fingerprint"));
  const json_value& m = e.at("mapping");
  entry.bank_functions = read_number_array<std::uint64_t>(m.at("bank_functions"));
  entry.row_bits = read_number_array<unsigned>(m.at("row_bits"));
  entry.column_bits = read_number_array<unsigned>(m.at("column_bits"));
  entry.address_bits = static_cast<unsigned>(m.at("address_bits").as_u64());
  const json_value& ev = e.at("evidence");
  entry.pool_size = ev.at("pool_size").as_u64();
  // v2 evidence keys; absent on v1 documents -> zero = no claim, so a v1
  // entry degrades to the span-only warm prior it always carried.
  if (const json_value* bc = ev.find("bank_count")) {
    entry.bank_count = static_cast<unsigned>(bc->as_u64());
  }
  if (const json_value* thr = ev.find("threshold_ns")) {
    entry.threshold_ns = thr->as_double();
  }
  const json_value& hist = e.at("history");
  for (std::size_t h = 0; h < hist.size(); ++h) {
    verification_event event;
    event.kind = hist[h].at("kind").as_string();
    event.seed = hist[h].at("seed").as_u64();
    event.measurements = hist[h].at("measurements").as_u64();
    entry.history.push_back(std::move(event));
  }
  // The mapping constructor enforces its own contracts (sorted distinct
  // bit lists, address_bits bounds); a violation is just another way the
  // file can be corrupt.
  (void)entry.mapping();
  return entry;
}

/// Throws unless the hashes stored in entry object `e` equal the
/// recomputed ones.
void check_hashes(const json_value& e, std::uint64_t hash,
                  std::uint64_t geometry_hash) {
  const json_value& fp = e.at("fingerprint");
  if (hash != fp.at("hash").as_u64() ||
      geometry_hash != fp.at("geometry_hash").as_u64()) {
    throw json_parse_error("fingerprint hash mismatch (corrupt entry?)");
  }
}

/// Append `bytes` to `path` in one write() on an O_APPEND descriptor,
/// provided the file is still `expected_size` bytes long. Returns false,
/// having written nothing, when the file cannot be opened or has another
/// size; throws std::runtime_error when the write fails or falls short,
/// which can leave a torn record at the end of the file.
bool append_at_size(const std::string& path, std::uint64_t expected_size,
                    const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) return false;
  // Nothing between open() and close() throws.
  struct stat st {};
  const bool same_file = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) &&
                         static_cast<std::uint64_t>(st.st_size) == expected_size;
  ssize_t written = 0;
  if (same_file && !bytes.empty()) {
    written = ::write(fd, bytes.data(), bytes.size());
  }
  const int write_errno = errno;
  const bool closed = ::close(fd) == 0;
  if (!same_file) return false;
  if (written < 0) {
    throw std::runtime_error("mapping store: append to '" + path +
                             "' failed: " + std::strerror(write_errno));
  }
  if (static_cast<std::size_t>(written) != bytes.size()) {
    throw std::runtime_error("mapping store: append to '" + path +
                             "' wrote " + std::to_string(written) + " of " +
                             std::to_string(bytes.size()) + " bytes");
  }
  if (!closed) {
    throw std::runtime_error("mapping store: closing '" + path +
                             "' after an append failed");
  }
  return true;
}

}  // namespace

void append_history(std::vector<verification_event>& history,
                    verification_event event) {
  history.push_back(std::move(event));
  if (history.size() > kHistoryLimit) {
    history.erase(history.begin(),
                  history.end() - static_cast<std::ptrdiff_t>(kHistoryLimit));
  }
}

dram::address_mapping store_entry::mapping() const {
  return dram::address_mapping(bank_functions, row_bits, column_bits,
                               address_bits);
}

std::uint64_t store_entry::compute_evidence_digest() const {
  std::ostringstream s;
  s << "span=";
  for (const std::uint64_t f : function_span) s << f << ",";
  s << "|rows=";
  for (const unsigned b : row_bits) s << b << ",";
  s << "|cols=";
  for (const unsigned b : column_bits) s << b << ",";
  s << "|pool=" << pool_size;
  s << "|banks=" << bank_count;
  s << "|thr=" << threshold_ns;
  return fnv1a(s.str());
}

mapping_store::slot::slot(store_entry e)
    : entry(std::move(e)),
      hash(entry.fingerprint.hash()),
      geometry_hash(entry.fingerprint.geometry_hash()),
      record(render_entry(entry, hash, geometry_hash)) {}

mapping_store::mapping_store(std::string path) : path_(std::move(path)) {
  DRAMDIG_EXPECTS(!path_.empty());
  std::error_code ec;
  if (!std::filesystem::exists(path_, ec)) return;
  try {
    const std::string text = read_file(path_);
    file_bytes_ = text.size();
    load_locked(text);
  } catch (const std::exception& e) {
    // The degradation contract: a store the service cannot trust costs a
    // cold run, never a crash. The broken file stays on disk untouched
    // until the next save() rewrites it whole.
    slots_.clear();
    load_warning_ = "mapping store '" + path_ +
                    "' is unreadable, starting cold: " + e.what();
    log_warn(load_warning_);
  }
}

void mapping_store::load_locked(const std::string& text) {
  const std::size_t eol = text.find('\n');
  if (eol != std::string::npos) {
    if (const auto header =
            log_header(std::string_view(text).substr(0, eol))) {
      check_header(*header, kStoreVersion, kStoreVersion);
      load_log_locked(std::string_view(text).substr(eol + 1));
      return;
    }
  }
  // A v1/v2 document. The store does not vouch for it: the first save
  // rewrites it as a log.
  const json_value doc = json_value::parse(text);
  check_header(doc, kOldestLoadableVersion, kNewestDocumentVersion);
  const json_value& list = doc.at("entries");
  for (std::size_t i = 0; i < list.size(); ++i) {
    slot s(read_entry(list[i]));
    check_hashes(list[i], s.hash, s.geometry_hash);
    slots_.push_back(std::move(s));
  }
}

void mapping_store::load_log_locked(std::string_view records) {
  std::size_t pos = 0;
  while (pos < records.size()) {
    const std::size_t end = records.find('\n', pos);
    if (end == std::string_view::npos) {
      // An append that did not finish: the record was never committed.
      load_warning_ = "mapping store '" + path_ + "' ends in a torn record (" +
                      std::to_string(records.size() - pos) +
                      " bytes without a line end), dropped it; " +
                      std::to_string(slots_.size()) + " entries loaded";
      log_warn(load_warning_);
      return;
    }
    const json_value e = json_value::parse(records.substr(pos, end - pos));
    slot s(read_entry(e));
    check_hashes(e, s.hash, s.geometry_hash);
    s.saved = true;
    upsert_locked(std::move(s));
    pos = end + 1;
  }
  vouched_ = true;
}

std::optional<store_entry> mapping_store::find_exact(
    const sysinfo::machine_fingerprint& fp) const {
  const std::uint64_t h = fp.hash();
  std::scoped_lock lock(mutex_);
  for (const slot& s : slots_) {
    if (s.hash == h) return s.entry;
  }
  return std::nullopt;
}

std::optional<store_entry> mapping_store::find_geometry(
    const sysinfo::machine_fingerprint& fp) const {
  const std::uint64_t h = fp.hash();
  const std::uint64_t g = fp.geometry_hash();
  std::scoped_lock lock(mutex_);
  for (const slot& s : slots_) {
    if (s.hash != h && s.geometry_hash == g) return s.entry;
  }
  return std::nullopt;
}

void mapping_store::put(store_entry entry) {
  slot fresh(std::move(entry));
  std::scoped_lock lock(mutex_);
  upsert_locked(std::move(fresh));
}

void mapping_store::upsert_locked(slot fresh) {
  for (slot& s : slots_) {
    if (s.hash == fresh.hash) {
      s = std::move(fresh);
      return;
    }
  }
  slots_.push_back(std::move(fresh));
}

std::size_t mapping_store::size() const {
  std::scoped_lock lock(mutex_);
  return slots_.size();
}

std::vector<store_entry> mapping_store::entries() const {
  std::scoped_lock lock(mutex_);
  std::vector<store_entry> out;
  out.reserve(slots_.size());
  for (const slot& s : slots_) out.push_back(s.entry);
  return out;
}

std::string mapping_store::to_json() const {
  std::scoped_lock lock(mutex_);
  return to_json_locked();
}

std::string mapping_store::to_json_locked() const {
  std::string log = header_line();
  for (const slot& s : slots_) log += s.record;
  return log;
}

void mapping_store::save() {
  std::scoped_lock lock(mutex_);
  if (path_.empty()) return;
  std::uint64_t compacted = header_line().size();
  std::string unsaved;
  for (const slot& s : slots_) {
    compacted += s.record.size();
    if (!s.saved) unsaved += s.record;
  }
  const bool append = vouched_ && file_bytes_ + unsaved.size() <=
                                      kCompactionFactor * compacted;
  // Cleared until a write lands whole: after a failed append or rewrite
  // the next save rewrites the log.
  vouched_ = false;
  if (append && append_at_size(path_, file_bytes_, unsaved)) {
    file_bytes_ += unsaved.size();
  } else {
    const std::string log = to_json_locked();
    write_file(path_, log);
    file_bytes_ = log.size();
  }
  vouched_ = true;
  for (slot& s : slots_) s.saved = true;
}

}  // namespace dramdig::store
