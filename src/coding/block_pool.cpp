#include "coding/block_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <vector>

namespace robustore::coding {
namespace {

// Every block buffer is its own anonymous mapping, rounded up to whole
// pages: page-aligned, and exactly size / page_size pages when the block
// size is a page multiple. From malloc, a pooled buffer that is never
// freed keeps glibc's mmap threshold low, so each one became a separate
// mapping of one page more than its bytes (the chunk header) and its data
// was only 16-byte aligned.
Bytes mappedBytes(Bytes size) {
  static const auto page = static_cast<Bytes>(sysconf(_SC_PAGESIZE));
  return size == 0 ? page : (size + page - 1) / page * page;
}

std::uint8_t* mapBlock(Bytes size) {
  void* p = mmap(nullptr, mappedBytes(size), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::uint8_t*>(p);
}

void unmapBlock(std::uint8_t* bytes, Bytes size) noexcept {
  munmap(bytes, mappedBytes(size));
}

struct BlockPool;

// Set while this thread's pool is alive. A plain pointer has no
// destructor, so a release during thread exit, after the pool is gone,
// still reads it safely and frees the buffer instead.
thread_local BlockPool* live_pool = nullptr;

struct BlockPool {
  BlockPool() { live_pool = this; }
  ~BlockPool() {
    live_pool = nullptr;
    clear();
  }
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  void clear() {
    for (std::uint8_t* bytes : free) unmapBlock(bytes, size);
    free.clear();
  }

  Bytes size = 0;
  std::vector<std::uint8_t*> free;  // most recently released last
};

}  // namespace

void BlockRelease::operator()(std::uint8_t* bytes) const noexcept {
  BlockPool* pool = live_pool;
  if (pool != nullptr && pool->size == size) {
    try {
      pool->free.push_back(bytes);
      return;
    } catch (...) {
      // No room to remember it: free it below.
    }
  }
  unmapBlock(bytes, size);
}

BlockBuffer acquireBlock(Bytes size) {
  thread_local BlockPool pool;
  if (pool.size != size) {
    pool.clear();
    pool.size = size;
  }
  if (pool.free.empty()) {
    return BlockBuffer(mapBlock(size), BlockRelease{size});
  }
  std::uint8_t* bytes = pool.free.back();
  pool.free.pop_back();
  return BlockBuffer(bytes, BlockRelease{size});
}

std::size_t pooledBlocks() {
  return live_pool != nullptr ? live_pool->free.size() : 0;
}

}  // namespace robustore::coding
