// Move-only callable with inline storage: the scheduler's event-pool
// currency.
//
// std::function heap-allocates every capture list larger than its small
// buffer (16 bytes on libstdc++) — one malloc/free round trip per event
// on the scheduler hot path. InplaceFunction<N> stores captures up to N
// bytes inside the object itself, so a pooled event node carries its
// callback with zero heap traffic. Oversized callables still work
// (boxed on the heap), they just lose that.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace abrr::sim {

/// Type-erased move-only `void()` callable with `Capacity` bytes of
/// inline storage. Unlike std::function it is move-only (no copy), which
/// is exactly what a scheduler slot needs and lets it hold move-only
/// captures (e.g. a moved-in net::Message).
template <std::size_t Capacity>
class InplaceFunction {
 public:
  InplaceFunction() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InplaceFunction> &&
                std::is_invocable_r_v<void, D&>>>
  InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    // Match std::function: constructing from a null function pointer (or
    // an empty std::function) yields an empty callable, so the
    // scheduler's empty-callback check keeps firing.
    if constexpr (std::is_constructible_v<bool, const D&>) {
      if (!static_cast<bool>(f)) return;
    }
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &inline_vtable<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      vt_ = &boxed_vtable<D>;
    }
  }

  InplaceFunction(InplaceFunction&& other) noexcept { take(other); }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      destroy();
      take(other);
    }
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { destroy(); }

  explicit operator bool() const { return vt_ != nullptr; }

  void operator()() { vt_->invoke(buf_); }

  /// True when `F`'s captures live inside this object (no heap box).
  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    // Move-constructs dst from src's storage and destroys src's payload.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename F>
  static constexpr VTable inline_vtable = {
      [](void* s) { (*std::launder(reinterpret_cast<F*>(s)))(); },
      [](void* dst, void* src) {
        F* from = std::launder(reinterpret_cast<F*>(src));
        ::new (dst) F(std::move(*from));
        from->~F();
      },
      [](void* s) { std::launder(reinterpret_cast<F*>(s))->~F(); },
  };

  template <typename F>
  static constexpr VTable boxed_vtable = {
      [](void* s) { (**std::launder(reinterpret_cast<F**>(s)))(); },
      [](void* dst, void* src) {
        F** from = std::launder(reinterpret_cast<F**>(src));
        ::new (dst) F*(*from);
        *from = nullptr;
      },
      [](void* s) { delete *std::launder(reinterpret_cast<F**>(s)); },
  };

  void take(InplaceFunction& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  void destroy() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[Capacity];
  const VTable* vt_ = nullptr;
};

}  // namespace abrr::sim
