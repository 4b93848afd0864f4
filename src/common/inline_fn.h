// InlineFn: a move-only `void()` callable that stores small closures in
// place.
//
// The simulator's hot paths hand closures to three queues: a Completion's
// callback list, a sim::Stream's op queue and the scheduler's timed-event
// queue. std::function puts any capture larger than two words on the heap
// (and libstdc++ puts every capture that is not trivially copyable there, a
// shared_ptr included), so each dispatched operation paid several
// allocations just to park its callbacks. InlineFn keeps every closure of
// up to kCapacity bytes inside the object; only an oversized capture (fault
// injection's watchdog timers, the fusion flush) falls back to the heap.
// Being move-only it also accepts move-only captures.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mcrdl {

class InlineFn {
 public:
  // Sized for the dispatch path's largest closure: a Work handle plus two
  // words (the finish stage's latency record, the engines' reclaim hooks).
  static constexpr std::size_t kCapacity = 4 * sizeof(void*);

  InlineFn() noexcept = default;

  // Wraps any callable; an empty std::function or null pointer yields an
  // empty InlineFn.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineFn(F&& fn) {  // implicit, like std::function
    if constexpr (std::is_constructible_v<bool, const D&>) {
      if (!static_cast<bool>(fn)) return;
    }
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept : ops_(std::exchange(other.ops_, nullptr)) {
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = std::exchange(other.ops_, nullptr);
      if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Calling an empty InlineFn is a program bug.
  void operator()() { ops_->invoke(storage_); }

 private:
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
  }

  struct Ops {
    void (*invoke)(void* self);
    // Move-constructs into dst from src, then destroys src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kCapacity && alignof(D) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*static_cast<D*>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* self) { (**static_cast<D**>(self))(); },
      [](void* dst, void* src) noexcept { ::new (dst) D*(*static_cast<D**>(src)); },
      [](void* self) noexcept { delete *static_cast<D**>(self); },
  };

  alignas(void*) unsigned char storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace mcrdl
