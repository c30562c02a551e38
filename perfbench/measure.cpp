#include "measure.hpp"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

std::optional<double> tailPercentile(std::vector<double> values, double q,
                                     std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffu;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

ProcessCounters processCounters() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcessCounters c;
  c.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
  c.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return c;
}

double secondsPerMinorFault() {
  constexpr std::size_t kBytes = 32u << 20;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<double> per_fault;
  for (int round = 0; round < 3; ++round) {
    void* region = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (region == MAP_FAILED) return 0.0;
    madvise(region, kBytes, MADV_NOHUGEPAGE);
    auto* bytes = static_cast<volatile unsigned char*>(region);
    const std::uint64_t faults0 = processCounters().minor_faults;
    const double t0 = nowSeconds();
    for (std::size_t off = 0; off < kBytes; off += page) bytes[off] = 1;
    const double elapsed = nowSeconds() - t0;
    const std::uint64_t faults = processCounters().minor_faults - faults0;
    munmap(region, kBytes);
    if (faults > 0) per_fault.push_back(elapsed / static_cast<double>(faults));
  }
  return median(std::move(per_fault));
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SpeedProbe::referenceSeconds() const {
  return kind_ == ProbeKind::kAlloc ? 600e-6 : 14e-3;
}

namespace {

void allocBurst() {
  constexpr int kRounds = 4;
  constexpr int kBlocks = 2000;
  void* volatile blocks[kBlocks];  // volatile: the calls cannot be elided
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // same sizes every burst
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kBlocks; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      blocks[i] = std::malloc(32 + (x & 255));
    }
    for (int i = 0; i < kBlocks; ++i) std::free(blocks[i]);
  }
}

bool memoryBurst(const std::vector<std::uint8_t>& source) {
  void* region = mmap(nullptr, source.size(), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (region == MAP_FAILED) return false;
  std::memcpy(region, source.data(), source.size());
  munmap(region, source.size());
  return true;
}

}  // namespace

void SpeedProbe::run() {
  if (kind_ == ProbeKind::kMemory && source_.empty()) {
    source_.assign(std::size_t{16} << 20, 0x5a);
  }
  const double t0 = nowSeconds();
  bool ok = true;
  if (kind_ == ProbeKind::kAlloc) {
    allocBurst();
  } else {
    ok = memoryBurst(source_);
  }
  last_ = nowSeconds();
  last_burst_ = last_ - t0;
  if (ok) samples_.push_back(last_burst_);
}

void SpeedProbe::maybeRun() {
  if (nowSeconds() - last_ >= 100.0 * last_burst_) run();
}

double SpeedProbe::medianSeconds() const { return median(samples_); }

double SpeedProbe::toReference() const {
  const double m = medianSeconds();
  return m > 0.0 ? referenceSeconds() / m : 1.0;
}

}  // namespace perfbench
