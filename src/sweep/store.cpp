#include "sweep/store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <type_traits>

#include "common/log.hpp"

namespace smache::sweep {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
/// Upper bound on one record's payload: a record is a label + an error
/// string + ~30 scalars, so anything near this is corruption, not data.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

std::uint64_t fnv_bytes(std::uint64_t h, const void* data,
                        std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// ---- fixed binary encoding (host byte order — a store directory is a
// per-machine artifact, like the build tree it is keyed to) ----

template <typename T>
void put_scalar(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out.append(bytes, sizeof(T));
}

void put_string(std::string& out, std::string_view s) {
  put_scalar(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

/// Bounds-checked sequential reader over one payload; every underflow is a
/// store_io_error (the caller treats the record as corrupt).
class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T));
    T v;
    std::memcpy(&v, s_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string get_string() {
    const auto n = get<std::uint32_t>();
    need(n);
    std::string out(s_.substr(pos_, n));
    pos_ += n;
    return out;
  }

  bool exhausted() const noexcept { return pos_ == s_.size(); }

 private:
  void need(std::size_t n) const {
    if (s_.size() - pos_ < n)
      throw store_io_error("store record payload truncated");
  }
  std::string_view s_;
  std::size_t pos_ = 0;
};

[[noreturn]] void io_fail(const std::string& what, const std::string& path,
                          const std::error_code& ec) {
  throw store_io_error("result store: cannot " + what + " '" + path +
                       "': " + (ec ? ec.message() : "unknown error"));
}

}  // namespace

// ---- FileIo ---------------------------------------------------------------

void FileIo::create_directories(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) io_fail("create directory", dir, ec);
  // create_directories succeeds silently on an existing path even when it
  // is a file; a store rooted at a non-directory must fail loudly instead.
  const bool is_dir = fs::is_directory(dir, ec);
  if (ec || !is_dir)
    throw store_io_error("result store: '" + dir +
                         "' exists and is not a directory");
}

bool FileIo::exists(const std::string& path) {
  std::error_code ec;
  const bool found = fs::exists(path, ec);
  return !ec && found;
}

std::vector<std::string> FileIo::list_files(const std::string& dir,
                                            std::string_view suffix) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) io_fail("list directory", dir, ec);
  std::vector<std::string> out;
  for (const auto& entry : it) {
    std::error_code tec;
    if (!entry.is_regular_file(tec) || tec) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        std::string_view(name).substr(name.size() - suffix.size()) == suffix)
      out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string FileIo::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    io_fail("read", path,
            std::make_error_code(std::errc::no_such_file_or_directory));
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (in.bad()) io_fail("read", path, std::make_error_code(std::errc::io_error));
  return out;
}

void FileIo::append_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out)
    io_fail("open for append", path,
            std::make_error_code(std::errc::permission_denied));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) io_fail("append to", path, std::make_error_code(std::errc::io_error));
}

void FileIo::write_file_atomic(const std::string& path,
                               std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      io_fail("write", tmp,
              std::make_error_code(std::errc::permission_denied));
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) io_fail("write", tmp, std::make_error_code(std::errc::io_error));
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) io_fail("rename into place", path, ec);
}

void FileIo::remove_file(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) io_fail("remove", path, ec);
}

FileIo& real_file_io() {
  static FileIo io;
  return io;
}

// ---- encoding -------------------------------------------------------------

std::string ResultStore::encode(const StoredResult& r) {
  std::string out;
  out.reserve(128 + r.label.size() + r.error.size());
  put_scalar(out, r.key);
  put_string(out, r.label);
  detail::for_each_payload_field(
      r,
      [&out](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>)
          put_string(out, v);
        else if constexpr (std::is_same_v<T, bool>)
          put_scalar(out, static_cast<std::uint8_t>(v));
        else
          put_scalar(out, v);
      },
      [] {});
  return out;
}

StoredResult ResultStore::decode(std::string_view payload) {
  Reader in(payload);
  StoredResult r;
  r.key = in.get<std::uint64_t>();
  r.label = in.get_string();
  detail::for_each_payload_field(
      r,
      [&in](auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>)
          v = in.get_string();
        else if constexpr (std::is_same_v<T, bool>)
          v = in.get<std::uint8_t>() != 0;
        else
          v = in.get<T>();
      },
      [] {});
  if (!in.exhausted())
    throw store_io_error("store record payload has trailing bytes");
  return r;
}

std::string ResultStore::frame(const StoredResult& record) {
  const std::string payload = encode(record);
  std::string out;
  out.reserve(payload.size() + 12);
  put_scalar(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
  put_scalar(out, fnv_bytes(kFnvOffset, payload.data(), payload.size()));
  return out;
}

std::uint64_t ResultStore::scenario_key(const Scenario& scenario,
                                        bool verify_reference) {
  std::uint64_t h = kFnvOffset;
  const std::uint32_t version = kFormatVersion;
  h = fnv_bytes(h, &version, sizeof version);
  h = fnv_bytes(h, scenario.label.data(), scenario.label.size());
  const char sep = '\0';
  h = fnv_bytes(h, &sep, 1);
  h = fnv_bytes(h, &scenario.seed, sizeof scenario.seed);
  h = fnv_bytes(h, &scenario.engine.max_cycles,
                sizeof scenario.engine.max_cycles);
  const std::uint8_t verify = verify_reference ? 1 : 0;
  h = fnv_bytes(h, &verify, 1);
  // Cell layout, folded only for F > 1: the kernel name inside the label
  // already separates layouts, but an explicit fold keeps the key honest if
  // a future kernel family ever parameterises its field count — while every
  // single-field key (all pre-multi-field store segments) stays identical.
  if (scenario.problem.kernel.fields() > 1) {
    const std::uint64_t fields = scenario.problem.kernel.fields();
    h = fnv_bytes(h, &fields, sizeof fields);
  }
  // Slice axis, same contract: the label's xD grid segment already
  // separates 3D scenarios, the explicit fold is belt-and-braces — and
  // folding only for D > 1 keeps every 2D key (all pre-3D store segments)
  // byte-identical.
  if (scenario.problem.depth > 1) {
    const std::uint64_t slices = scenario.problem.depth;
    h = fnv_bytes(h, &slices, sizeof slices);
  }
  return h;
}

// ---- ResultStore ----------------------------------------------------------

ResultStore::ResultStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)),
      options_(options),
      io_(options.io != nullptr ? options.io : &real_file_io()) {
  io().create_directories(dir_);
  // A .tmp file is a rotation/compaction the crash interrupted before its
  // atomic rename: never observed by readers, safe to discard.
  for (const std::string& tmp : io().list_files(dir_, ".tmp"))
    io().remove_file(tmp);
  for (const std::string& path : io().list_files(dir_, ".smr")) {
    load_segment(path);
    segment_files_.push_back(path);
    // Segment numbering continues after the highest existing index; a
    // foreign filename just doesn't advance it.
    const std::string name = fs::path(path).filename().string();
    if (name.size() > 8 && name.compare(0, 4, "seg-") == 0) {
      std::uint64_t idx = 0;
      bool digits = false;
      for (std::size_t i = 4; i < name.size() - 4; ++i) {
        if (name[i] < '0' || name[i] > '9') {
          digits = false;
          break;
        }
        idx = idx * 10 + static_cast<std::uint64_t>(name[i] - '0');
        digits = true;
      }
      if (digits && idx >= next_segment_) next_segment_ = idx + 1;
    }
  }
}

std::string ResultStore::segment_path(std::uint64_t index) const {
  char name[32];
  std::snprintf(name, sizeof name, "seg-%06llu.smr",
                static_cast<unsigned long long>(index));
  return dir_ + "/" + name;
}

void ResultStore::load_segment(const std::string& path) {
  const std::string data = io().read_file(path);
  const std::size_t header = 8 + sizeof(std::uint32_t);
  std::uint32_t version = 0;
  if (data.size() >= header) std::memcpy(&version, data.data() + 8, 4);
  if (data.size() < header || std::memcmp(data.data(), kMagic, 8) != 0 ||
      version != kFormatVersion) {
    ++dropped_;
    Log::warn("result store: ignoring segment with foreign header: " + path);
    return;
  }
  std::size_t pos = header;
  std::size_t loaded = 0;
  while (pos < data.size()) {
    // Frame: u32 length, payload, u64 checksum. Anything that does not
    // parse cleanly poisons the REST of this segment: after a corrupt
    // record the framing itself is untrustworthy.
    std::uint32_t len = 0;
    if (data.size() - pos < sizeof len) break;  // torn length prefix
    std::memcpy(&len, data.data() + pos, sizeof len);
    if (len > kMaxPayloadBytes ||
        data.size() - pos - sizeof len < len + sizeof(std::uint64_t))
      break;  // implausible length or torn payload/checksum
    const std::string_view payload(data.data() + pos + sizeof len, len);
    std::uint64_t checksum = 0;
    std::memcpy(&checksum, data.data() + pos + sizeof len + len,
                sizeof checksum);
    if (fnv_bytes(kFnvOffset, payload.data(), payload.size()) != checksum)
      break;
    StoredResult record;
    try {
      record = decode(payload);
    } catch (const store_io_error&) {
      break;
    }
    index_[record.key] = std::move(record);  // last writer wins
    ++loaded;
    pos += sizeof len + len + sizeof checksum;
  }
  if (pos < data.size()) {
    ++dropped_;
    Log::warn("result store: dropped torn/corrupt tail of " + path + " (" +
              std::to_string(data.size() - pos) + " bytes after " +
              std::to_string(loaded) +
              " intact records) — affected scenarios will re-execute");
  }
}

std::size_t ResultStore::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

std::uint64_t ResultStore::dropped_records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool ResultStore::contains(std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return index_.count(key) != 0;
}

bool ResultStore::find(std::uint64_t key, StoredResult* out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  if (out != nullptr) *out = it->second;
  return true;
}

StoreStats ResultStore::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  StoreStats s = stats_;
  s.dropped = dropped_;
  return s;
}

void ResultStore::note_retry() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.retries;
}

void ResultStore::rotate_locked() {
  const std::string path = segment_path(next_segment_++);
  std::string header(kMagic, 8);
  put_scalar(header, kFormatVersion);
  io().write_file_atomic(path, header);
  segment_files_.push_back(path);
  active_path_ = path;
  active_bytes_ = header.size();
}

void ResultStore::put(const StoredResult& record) {
  const std::string bytes = frame(record);
  const std::lock_guard<std::mutex> lock(mu_);
  if (active_path_.empty() || active_bytes_ >= options_.max_segment_bytes)
    rotate_locked();
  try {
    io().append_file(active_path_, bytes);
  } catch (...) {
    // The failed append may have left a torn tail; abandon this segment so
    // a retry starts a fresh one instead of appending after garbage (which
    // recovery would rightly refuse to read past).
    active_path_.clear();
    throw;
  }
  active_bytes_ += bytes.size();
  ++stats_.appends;
  index_[record.key] = record;
}

void ResultStore::compact() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string buffer(kMagic, 8);
  put_scalar(buffer, kFormatVersion);
  for (const auto& [key, record] : index_) {
    (void)key;
    buffer += frame(record);
  }
  const std::string path = segment_path(next_segment_++);
  io().write_file_atomic(path, buffer);
  for (const std::string& old : segment_files_) io().remove_file(old);
  segment_files_ = {path};
  // The compacted segment is sealed; the next put() rotates a new one.
  active_path_.clear();
  active_bytes_ = 0;
}

}  // namespace smache::sweep
