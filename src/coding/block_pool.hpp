#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/units.hpp"

namespace robustore::coding {

/// Releases a block buffer into the releasing thread's pool.
struct BlockRelease {
  Bytes size = 0;
  void operator()(std::uint8_t* bytes) const noexcept;
};

/// One block-sized buffer that goes back to the block pool when released.
using BlockBuffer = std::unique_ptr<std::uint8_t[], BlockRelease>;

/// A `size`-byte buffer from this thread's block pool, allocated only when
/// the pool is empty. Its bytes are uninitialised, as with
/// make_unique_for_overwrite: a buffer released earlier comes back with
/// whatever it last held, so the caller overwrites every byte.
///
/// Each buffer is its own anonymous mapping of whole pages, so it is
/// page-aligned and occupies exactly ceil(size / page size) pages.
///
/// The pool keeps the buffers released on its thread, most recent first,
/// so a decode reuses the pages of the previous one instead of faulting
/// in fresh ones. It holds one block size at a time: asking for another
/// size frees the buffers it holds, and a buffer of another size is freed
/// on release. It is thread-local, so threads never share buffers and it
/// needs no lock; it only holds what was once live on its thread. A buffer
/// released by a thread that never acquired one, or after its pool is
/// destroyed at thread exit, is freed.
[[nodiscard]] BlockBuffer acquireBlock(Bytes size);

/// Buffers this thread's pool holds, ready for reuse.
[[nodiscard]] std::size_t pooledBlocks();

}  // namespace robustore::coding
