#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace robustore::sim {

template <typename Sig = void(), std::size_t InlineBytes = 48>
class SmallFn;

/// Move-only type-erased callable with a small-object buffer:
/// `SmallFn<>` is a `void()` callback (the engine's event type),
/// `SmallFn<void(bool)>` a delivery callback, and so on.
///
/// The engine schedules millions of short-lived callbacks per trial, and
/// the disk, server and client layers store one or two callbacks per
/// block request; `std::function` heap-allocates every capture larger
/// than its (implementation-defined, typically 16-byte) internal buffer
/// and drags a copy-constructor requirement along. SmallFn stores
/// captures up to `InlineBytes` in place and only falls back to the heap
/// for the rare large capture (a repair job's nested settle lambdas).
/// Every per-request path stores a small handle (`[this, handle]`)
/// instead of the request, so request callbacks stay inline. It is
/// move-only, so move-only captures work too; move a SmallFn, never wrap
/// it in another copyable callback.
///
/// Emptiness mirrors std::function: default-constructed SmallFn is empty
/// and falsy, and constructing from an *empty* function-like object
/// (null function pointer, empty std::function) yields an empty SmallFn
/// rather than one that would throw on invocation.
template <typename R, typename... Args, std::size_t InlineBytes>
class SmallFn<R(Args...), InlineBytes> {
 public:
  /// The engine's default (48 bytes + ops pointer) keeps every per-event
  /// capture in the simulator's own layers ([this, id], [this, index], a
  /// request callback plus its id) inline and the slab node
  /// cache-friendly. Request records that store callbacks pick the size
  /// their largest capture needs.
  static constexpr std::size_t kInlineBytes = InlineBytes;

  SmallFn() = default;
  SmallFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (std::is_constructible_v<bool, const Fn&>) {
      if (!static_cast<bool>(f)) return;  // empty function-like: stay empty
    }
    if constexpr (fitsInline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { moveFrom(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }
  SmallFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }
  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move-constructs into `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr bool fitsInline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static Fn* inlinePtr(void* p) {
    return std::launder(reinterpret_cast<Fn*>(p));
  }
  template <typename Fn>
  static Fn*& heapPtr(void* p) {
    return *std::launder(reinterpret_cast<Fn**>(p));
  }

  /// Calls `f`, discarding its result when the signature returns void
  /// (a void callback may wrap a callable that returns something).
  template <typename Fn>
  static R call(Fn& f, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      f(std::forward<Args>(args)...);
    } else {
      return f(std::forward<Args>(args)...);
    }
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p, Args&&... args) -> R {
        return call(*inlinePtr<Fn>(p), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        Fn* s = inlinePtr<Fn>(src);
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* p) { inlinePtr<Fn>(p)->~Fn(); },
  };
  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* p, Args&&... args) -> R {
        return call(*heapPtr<Fn>(p), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) { ::new (dst) Fn*(heapPtr<Fn>(src)); },
      [](void* p) { delete heapPtr<Fn>(p); },
  };

  void moveFrom(SmallFn& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace robustore::sim
