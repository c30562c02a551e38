#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/expects.hpp"

namespace robustore::sim {

/// Generation-tagged reference to one record of a Slab<T>: a slot index
/// and the slot's generation packed into one word. Copyable and trivially
/// cheap to capture (`[this, handle]`); once the record is released the
/// handle resolves to nothing, even after its slot has been reused.
template <typename T>
struct SlabHandle {
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::uint64_t value = kNone;
  [[nodiscard]] bool valid() const { return value != kNone; }
  friend bool operator==(SlabHandle, SlabHandle) = default;
};

/// Recycled storage for per-request records (the pattern of the engine's
/// event nodes and the disk's request slots): a record lives in a slot
/// from acquire() to release(), slots are reused most recently released
/// first, and storage stays proportional to the records live at once,
/// never to how many were ever issued. Nothing is allocated once the slab
/// has grown to the live high-water mark.
///
/// Pointers and references into the slab are invalidated by acquire();
/// code that may re-enter (a callback issuing a new request) holds the
/// handle, not the record.
template <typename T>
class Slab {
 public:
  using Handle = SlabHandle<T>;

  /// A slot holding a default-state record.
  [[nodiscard]] Handle acquire() {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    return Handle{(static_cast<std::uint64_t>(slot) << 32) |
                  slots_[slot].generation};
  }

  /// The record, or null once it has been released (or for kNone).
  [[nodiscard]] T* get(Handle h) {
    return const_cast<T*>(std::as_const(*this).get(h));
  }
  [[nodiscard]] const T* get(Handle h) const {
    const auto slot = static_cast<std::size_t>(h.value >> 32);
    if (slot >= slots_.size()) return nullptr;
    const Slot& s = slots_[slot];
    return s.generation == static_cast<std::uint32_t>(h.value) ? &s.value
                                                               : nullptr;
  }

  /// The record of a handle known to be live.
  [[nodiscard]] T& operator[](Handle h) {
    T* record = get(h);
    ROBUSTORE_EXPECTS(record != nullptr, "stale slab handle");
    return *record;
  }

  /// Resets the record, dropping its callbacks and whatever else it
  /// owns, and recycles its slot; every handle to it stops resolving.
  /// A record type with a `recycle()` member resets itself that way (to
  /// keep storage for the slot's next record, such as a vector's
  /// capacity); any other is assigned T{}.
  void release(Handle h) {
    const auto slot = static_cast<std::uint32_t>(h.value >> 32);
    ROBUSTORE_EXPECTS(get(h) != nullptr, "release of a stale slab handle");
    Slot& s = slots_[slot];
    if constexpr (requires(T& t) { t.recycle(); }) {
      s.value.recycle();
    } else {
      s.value = T{};
    }
    ++s.generation;
    free_.push_back(slot);
  }

  /// Records acquired and not yet released.
  [[nodiscard]] std::size_t live() const {
    return slots_.size() - free_.size();
  }

 private:
  struct Slot {
    T value{};
    std::uint32_t generation = 0;
  };

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace robustore::sim
