// Move-only callable with inline storage for small captures.
//
// The simulator schedules millions of short-lived callbacks per run, and
// the database and TPC-C continuations hand results along the same way.
// Nearly all of them capture only a handful of pointers (a driver `this`,
// an alive-flag shared_ptr, a couple of ints). libstdc++'s std::function
// keeps a capture inline only when it is trivially copyable and at most
// 16 bytes, so most of those captures spill to the heap: one malloc/free
// pair per simulated step. Callback<R(Args...)> keeps captures up to
// kInlineBytes (64 unless the second template argument says otherwise) in
// place and only heap-allocates beyond that. The simulator's event slots
// keep 48 (Simulator::Callback).
//
// A Callback that captures another Callback is always larger than the
// inline buffer, so code that hands a continuation through several layers
// stores it once and lets the layers capture a pointer or a small handle.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace trail::sim {

template <typename Signature, std::size_t InlineBytes = 64>
class Callback;

template <typename R, typename... Args, std::size_t InlineBytes>
class Callback<R(Args...), InlineBytes> {
 public:
  static constexpr std::size_t kInlineBytes = InlineBytes;

  Callback() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Callback(Callback&& other) noexcept { move_from(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  Callback& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  ~Callback() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Like std::function, a const Callback may run a mutable target.
  R operator()(Args... args) const { return ops_->invoke(storage_, std::forward<Args>(args)...); }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    // Move-construct into dst from src, then destroy src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
  };

  /// A void Callback may wrap a target that returns a value.
  template <typename Fn>
  static R call(Fn& fn, Args&&... args) {
    if constexpr (std::is_void_v<R>)
      std::invoke(fn, std::forward<Args>(args)...);
    else
      return std::invoke(fn, std::forward<Args>(args)...);
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* self, Args&&... args) -> R {
        return call(*std::launder(reinterpret_cast<Fn*>(self)), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* self) { std::launder(reinterpret_cast<Fn*>(self))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* self, Args&&... args) -> R {
        return call(**std::launder(reinterpret_cast<Fn**>(self)), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) { ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src))); },
      [](void* self) { delete *std::launder(reinterpret_cast<Fn**>(self)); },
  };

  void move_from(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) mutable unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace trail::sim
