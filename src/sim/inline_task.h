#pragma once

// Small-buffer-optimized move-only callable for the event loop.
//
// std::function<void()> heap-allocates once captures exceed its tiny
// internal buffer (16 bytes on libstdc++) and drags in copyability
// machinery the scheduler never uses. InlineTask stores any callable up
// to kInlineBytes in-place, so the steady-state schedule/fire cycle does
// not touch the allocator; larger captures fall back to the heap and are
// counted (sim::LoopStats::task_heap_allocs) so regressions show up in
// bench reports instead of profiles.

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace meshnet::sim {

class InlineTask {
 public:
  /// Capture budget. 48 bytes fits every scheduler lambda in the tree
  /// (typically `this` + a couple of ids) with room to spare.
  static constexpr std::size_t kInlineBytes = 48;

  /// True if a callable of type `Fn` is stored in place. Hot-path closures
  /// static_assert this, so a capture that grows past the buffer fails the
  /// build instead of silently adding a heap allocation per event.
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  InlineTask() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineTask> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineTask(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineTask(InlineTask&& other) noexcept { steal(other); }

  InlineTask& operator=(InlineTask&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InlineTask(const InlineTask&) = delete;
  InlineTask& operator=(const InlineTask&) = delete;

  ~InlineTask() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True if the callable was too large for the inline buffer and lives
  /// on the heap (LoopStats counts these at schedule time).
  bool heap_allocated() const noexcept { return ops_ && ops_->heap; }

  /// Destroys the stored callable (and releases its captures) eagerly —
  /// used by cancel() so a cancelled timer does not pin resources until
  /// its tombstone drains.
  void reset() noexcept {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;  // move-construct + destroy src
    void (*destroy)(void*) noexcept;
    bool heap;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); },
      /*heap=*/false,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* p) noexcept { delete *std::launder(reinterpret_cast<Fn**>(p)); },
      /*heap=*/true,
  };

  void steal(InlineTask& other) noexcept {
    if (other.ops_) {
      ops_ = other.ops_;
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

}  // namespace meshnet::sim
