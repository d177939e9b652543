// Discrete-event simulation engine.
//
// A Simulation owns the virtual clock and a two-level ladder queue of
// pending events (sim/event_queue.h). Components capture a Simulation& and
// call schedule()/schedule_at() to post callbacks; run()/run_until() drains
// the queue in timestamp order. Ties are broken by insertion order (FIFO),
// which keeps packet processing at equal timestamps deterministic.
//
// Callbacks are stored as EventFn (sim/event_fn.h), constructed once in the
// event's queue slot from the callable schedule() forwards and called
// there: captures up to 64 bytes are stored inline, so the steady-state
// schedule path performs zero heap allocations per event.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/digest.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace presto::sim {

/// Discrete-event scheduler and virtual clock. Not thread-safe: a simulation
/// runs on a single thread by design (determinism over parallelism).
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedules callable `cb` to run `delay` ns from now. Negative delays
  /// are clamped to zero (run "immediately", after already-queued events at
  /// `now`).
  template <typename F>
  void schedule(Time delay, F&& cb) {
    schedule_at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(cb));
  }

  /// Schedules callable `cb` at absolute time `when` (clamped to now()).
  template <typename F>
  void schedule_at(Time when, F&& cb) {
    if (when < now_) when = now_;
    queue_.push(when, std::forward<F>(cb));
  }

  /// Runs events until the queue is empty or `stop()` is called.
  void run() { run_until(kTimeNever); }

  /// Runs events with timestamp <= `deadline`; afterwards now() == deadline
  /// — including when the queue drained before reaching it — so back-to-back
  /// run_until calls advance the clock in lock step with their deadlines
  /// (the soak tier's epoch boundaries depend on this). Only stop() leaves
  /// the clock at the last executed event's time.
  void run_until(Time deadline) {
    stopped_ = false;
    while (!stopped_ && !queue_.empty()) {
      Time when;
      const std::uint32_t slot = queue_.pop_due(deadline, &when);
      if (slot == EventQueue::kNone) break;
      now_ = when;
      ++executed_;
      // Runs in its queue slot, which re-entrant schedules from inside the
      // callback can neither move nor reuse until it returns.
      queue_.call(slot);
    }
    if (!stopped_ && deadline != kTimeNever && now_ < deadline) {
      now_ = deadline;
    }
  }

  /// Executed-watermark run control (checkpoint replay): runs events in
  /// timestamp order until executed() reaches `target`, the queue drains,
  /// stop() is called, or the next event lies past `deadline`. Unlike
  /// run_until, the clock is left at the last executed event — the caller
  /// is mid-stream at an exact event-count watermark, not at a time
  /// boundary. Replaying a deterministic run to the same watermark
  /// reproduces the same state bit for bit.
  void run_until_executed(std::uint64_t target, Time deadline = kTimeNever) {
    stopped_ = false;
    while (!stopped_ && executed_ < target && !queue_.empty()) {
      Time when;
      const std::uint32_t slot = queue_.pop_due(deadline, &when);
      if (slot == EventQueue::kNone) break;
      now_ = when;
      ++executed_;
      queue_.call(slot);
    }
  }

  /// Stops run()/run_until() after the current event returns.
  void stop() { stopped_ = true; }

  /// Number of pending events (for tests/diagnostics).
  std::size_t pending() const { return queue_.size(); }

  /// Total number of events executed so far.
  std::uint64_t executed() const { return executed_; }

  /// Scheduler contribution to a checkpoint state digest: clock, executed
  /// watermark, and pending-event count. Queue *contents* are not hashed —
  /// closures are opaque — but any divergence in what was scheduled shows
  /// up in these three within one event of happening.
  void digest_state(Digest& d) const {
    d.mix_time(now_);
    d.mix(executed_);
    d.mix(queue_.size());
  }

 private:
  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace presto::sim
