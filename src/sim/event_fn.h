// Small-buffer callable for simulator events.
//
// EventFn replaces std::function<void()> on the scheduler hot path. Captures
// up to kInlineBytes (64) are stored inline — no heap allocation per event —
// which covers every steady-state callback in the simulator (the largest,
// Host::dispatch's {this, segments, acks}, is 56 bytes). Larger captures
// fall back to a single heap allocation, exactly like std::function, so
// correctness never depends on capture size.
//
// EventFn is move-only (events are scheduled once and invoked once). The
// scheduler never moves one: each is constructed in its event's queue slot
// and called there (sim/event_queue.h). The noexcept move serves callers
// that hold an EventFn themselves before scheduling it.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace presto::sim {

class EventFn {
 public:
  /// Inline capture budget. Anything larger heap-allocates (one malloc).
  static constexpr std::size_t kInlineBytes = 64;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function.
  EventFn(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  EventFn(EventFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() {
    if (ops_ != nullptr) ops_->destroy(buf_);
  }

  void operator()() { ops_->call(buf_); }

  /// True when callable type F would be stored inline (introspection for
  /// the allocation-free schedule path; tests/schedule_alloc_test.cc
  /// checks it at run time).
  template <typename F>
  static constexpr bool fits_inline() {
    using Fn = std::decay_t<F>;
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct Ops {
    void (*call)(void* self);
    /// Move-constructs dst from src, then destroys src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static void call(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      Fn* s = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void destroy(void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops ops{&call, &relocate, &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static void call(void* p) { (**static_cast<Fn**>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn*(*static_cast<Fn**>(src));
    }
    static void destroy(void* p) noexcept { delete *static_cast<Fn**>(p); }
    static constexpr Ops ops{&call, &relocate, &destroy};
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace presto::sim
