#include "sweep/faults.hpp"

#include <algorithm>
#include <utility>

namespace smache::sweep {

namespace {

/// splitmix64 — tiny, well-mixed, and stable across platforms; exactly the
/// right tool for "same seed, same plan".
std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

bool FaultPlan::apply(std::string_view label, mem::DramConfig* config) const {
  bool matched = false;
  for (const DramFault& fault : dram) {
    if (!fault.label_contains.empty() &&
        label.find(fault.label_contains) == std::string_view::npos)
      continue;
    matched = true;
    if (fault.storm_every != 0) {
      config->storm_every = fault.storm_every;
      config->storm_cycles = fault.storm_cycles;
    }
    if (fault.delay_every != 0) {
      config->delay_every = fault.delay_every;
      config->delay_cycles = fault.delay_cycles;
    }
  }
  return matched;
}

FaultPlan FaultPlan::seeded(std::uint64_t seed, std::size_t count) {
  FaultPlan plan;
  plan.dram.reserve(count);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t bits = splitmix64(state);
    DramFault fault;
    const std::uint64_t every = 64 + (bits & 1023);          // 64..1087
    const std::uint64_t cycles = 1 + ((bits >> 10) & 7);     // 1..8
    if (((bits >> 13) & 1) == 0) {
      fault.storm_every = every;
      fault.storm_cycles = cycles;
    } else {
      fault.delay_every = every;
      fault.delay_cycles = cycles;
    }
    plan.dram.push_back(fault);
  }
  return plan;
}

const IoFault* FaultyFileIo::match(IoFaultKind kind,
                                   std::uint64_t index) const {
  for (const IoFault& fault : faults_)
    if (fault.kind == kind && fault.op_index == index) return &fault;
  return nullptr;
}

void FaultyFileIo::create_directories(const std::string& dir) {
  inner_.create_directories(dir);
}

bool FaultyFileIo::exists(const std::string& path) {
  return inner_.exists(path);
}

std::vector<std::string> FaultyFileIo::list_files(const std::string& dir,
                                                  std::string_view suffix) {
  return inner_.list_files(dir, suffix);
}

std::string FaultyFileIo::read_file(const std::string& path) {
  const std::uint64_t index = read_count_++;
  std::string data = inner_.read_file(path);
  if (const IoFault* fault = match(IoFaultKind::ShortRead, index))
    data.resize(std::min<std::size_t>(data.size(),
                                      static_cast<std::size_t>(fault->offset)));
  return data;
}

/// An inner handle whose appends go through the owning FaultyFileIo's
/// script.
class FaultyFileIo::Handle final : public FileIo::AppendHandle {
 public:
  Handle(FaultyFileIo& io, std::string path,
         std::unique_ptr<AppendHandle> inner)
      : io_(io), path_(std::move(path)), inner_(std::move(inner)) {}

  void append(std::string_view bytes) override {
    io_.append_through(*inner_, path_, bytes);
  }

 private:
  FaultyFileIo& io_;
  std::string path_;
  std::unique_ptr<AppendHandle> inner_;
};

std::unique_ptr<FileIo::AppendHandle> FaultyFileIo::open_append(
    const std::string& path) {
  return std::make_unique<Handle>(*this, path, inner_.open_append(path));
}

void FaultyFileIo::append_through(AppendHandle& inner,
                                  const std::string& path,
                                  std::string_view bytes) {
  const std::uint64_t index = append_count_++;
  if (match(IoFaultKind::FailAppend, index))
    throw store_io_error("injected transient append failure on '" + path +
                         "'");
  if (const IoFault* fault = match(IoFaultKind::TornAppend, index)) {
    const std::size_t cut = std::min<std::size_t>(
        bytes.size(), static_cast<std::size_t>(fault->offset));
    inner.append(bytes.substr(0, cut));
    throw store_io_error("injected torn append on '" + path + "' after " +
                         std::to_string(cut) + " of " +
                         std::to_string(bytes.size()) + " bytes");
  }
  if (const IoFault* fault = match(IoFaultKind::BitFlipAppend, index)) {
    std::string corrupted(bytes);
    if (fault->offset < corrupted.size())
      corrupted[static_cast<std::size_t>(fault->offset)] ^=
          static_cast<char>(fault->mask);
    inner.append(corrupted);
    return;
  }
  inner.append(bytes);
}

void FaultyFileIo::write_file_atomic(const std::string& path,
                                     std::string_view bytes) {
  inner_.write_file_atomic(path, bytes);
}

void FaultyFileIo::remove_file(const std::string& path) {
  inner_.remove_file(path);
}

}  // namespace smache::sweep
