#include "coding/block_pool.hpp"

#include <vector>

namespace robustore::coding {
namespace {

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
    for (std::uint8_t* bytes : free) delete[] bytes;
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
  delete[] bytes;
}

BlockBuffer acquireBlock(Bytes size) {
  thread_local BlockPool pool;
  if (pool.size != size) {
    pool.clear();
    pool.size = size;
  }
  if (pool.free.empty()) {
    return BlockBuffer(new std::uint8_t[size], BlockRelease{size});
  }
  std::uint8_t* bytes = pool.free.back();
  pool.free.pop_back();
  return BlockBuffer(bytes, BlockRelease{size});
}

std::size_t pooledBlocks() {
  return live_pool != nullptr ? live_pool->free.size() : 0;
}

}  // namespace robustore::coding
