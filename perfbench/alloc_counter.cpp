// Counting replacements of the global allocation functions. Linked into
// the benchmark's executables only, so the simulator is measured from
// outside: the library is unchanged and unaware of the counting.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "measure.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::int64_t> g_nanos{0};
std::atomic<std::int64_t> g_clock_nanos{0};
std::atomic<bool> g_timing{false};

/// Timing samples one allocation call in kSampleEvery: two clock reads on
/// every call would cost more than a small malloc itself.
constexpr std::uint64_t kSampleEvery = 16;

std::int64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Adds the scope's duration, less the cost of the clock reads, scaled
/// by the sampling period, to g_nanos — for sampled calls while timing.
class TimedScope {
 public:
  TimedScope()
      : on_(g_timing.load(std::memory_order_relaxed) &&
            g_calls.fetch_add(1, std::memory_order_relaxed) % kSampleEvery ==
                0) {
    if (on_) start_ = nowNanos();
  }
  ~TimedScope() {
    if (!on_) return;
    const std::int64_t ns =
        nowNanos() - start_ - g_clock_nanos.load(std::memory_order_relaxed);
    if (ns > 0) {
      g_nanos.fetch_add(ns * static_cast<std::int64_t>(kSampleEvery),
                        std::memory_order_relaxed);
    }
  }
  TimedScope(const TimedScope&) = delete;
  TimedScope& operator=(const TimedScope&) = delete;

 private:
  bool on_;
  std::int64_t start_ = 0;
};

void* allocate(std::size_t size, std::size_t align) {
  const TimedScope timed;
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p == nullptr) return nullptr;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return p;
}

void* allocateOrThrow(std::size_t size, std::size_t align) {
  void* p = allocate(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void release(void* p) {
  const TimedScope timed;
  std::free(p);
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t n) { return allocateOrThrow(n, kDefaultAlign); }
void* operator new[](std::size_t n) {
  return allocateOrThrow(n, kDefaultAlign);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return allocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}

namespace perfbench {

AllocCounts allocCounts() {
  AllocCounts c;
  c.allocs = g_allocs.load(std::memory_order_relaxed);
  c.bytes = g_bytes.load(std::memory_order_relaxed);
  c.seconds =
      static_cast<double>(g_nanos.load(std::memory_order_relaxed)) * 1e-9;
  return c;
}

void setAllocTiming(bool on) {
  if (on) {
    // Calibrate the cost of an empty timed interval: median of many.
    std::array<std::int64_t, 1001> empty{};
    for (auto& ns : empty) {
      const std::int64_t t0 = nowNanos();
      ns = nowNanos() - t0;
    }
    std::nth_element(empty.begin(), empty.begin() + 500, empty.end());
    g_clock_nanos.store(empty[500], std::memory_order_relaxed);
  }
  g_timing.store(on, std::memory_order_relaxed);
}

}  // namespace perfbench
