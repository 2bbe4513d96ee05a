#ifndef LAAR_SIM_SIMULATOR_H_
#define LAAR_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace laar::obs {
class TraceRecorder;
}

namespace laar::sim {

/// Simulated time in seconds.
using SimTime = double;

/// Identifier of a scheduled event, usable with `Cancel` and `Reschedule`.
/// Encodes (slot generation << 32 | slot index); a fired or cancelled id
/// goes permanently stale, so acting on it is a cheap no-op.
using EventId = uint64_t;

constexpr EventId kInvalidEvent = 0;

/// A move-only `void()` callback with small-buffer optimization.
///
/// Trivially-copyable callables up to `kInlineBytes` (every capture list in
/// the simulation: a handful of pointers, doubles, and integers) live
/// inline — constructing, moving, and destroying them never touches the
/// heap. Anything larger or non-trivial is boxed on the heap transparently;
/// `Simulator` counts those so tests can assert the hot path stays inline.
class EventCallback {
 public:
  static constexpr size_t kInlineBytes = 40;

  EventCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cv_t<std::remove_reference_t<F>>,
                                EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& f) {  // NOLINT: implicit so call sites pass raw lambdas
    using Fn = std::decay_t<F>;
    if constexpr (std::is_trivially_copyable_v<Fn> && sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = [](EventCallback* self) {
        (*std::launder(reinterpret_cast<Fn*>(self->storage_)))();
      };
      destroy_ = nullptr;  // trivial: dropping the bytes is enough
    } else {
      Fn* boxed = new Fn(std::forward<F>(f));
      std::memcpy(storage_, &boxed, sizeof(boxed));
      invoke_ = [](EventCallback* self) { (*self->Boxed<Fn>())(); };
      destroy_ = [](EventCallback* self) { delete self->Boxed<Fn>(); };
    }
  }

  EventCallback(EventCallback&& other) noexcept
      : invoke_(other.invoke_), destroy_(other.destroy_) {
    std::memcpy(storage_, other.storage_, sizeof(storage_));
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      invoke_ = other.invoke_;
      destroy_ = other.destroy_;
      std::memcpy(storage_, other.storage_, sizeof(storage_));
      other.invoke_ = nullptr;
      other.destroy_ = nullptr;
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  void operator()() { invoke_(this); }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// True when the payload did not fit inline and was heap-boxed.
  bool boxed() const { return destroy_ != nullptr; }

  void Reset() {
    if (destroy_ != nullptr) destroy_(this);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  template <typename Fn>
  Fn* Boxed() {
    Fn* boxed;
    std::memcpy(&boxed, storage_, sizeof(boxed));
    return boxed;
  }

  void (*invoke_)(EventCallback*) = nullptr;
  void (*destroy_)(EventCallback*) = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

/// A deterministic discrete-event simulation engine.
///
/// Events at equal timestamps fire in scheduling order (a monotone sequence
/// number breaks ties; `Reschedule` re-draws the sequence, so it ties like
/// a fresh schedule), which makes entire runs reproducible.
///
/// The hot path is allocation-free in steady state: payloads live inline in
/// pooled slots recycled through a free list, and the pending set is an
/// indexed 4-ary min-heap whose `Cancel`/`Reschedule` work in place in
/// O(log n) — no tombstones, so `pending_events()` is exact and cancelling
/// an already-fired event cannot leak state. A fired event's heap entry
/// stays at the root until the next read of the heap order, so the first
/// event its callback schedules replaces it there with one sift-down in
/// place of a pop and a push.
class Simulator {
 public:
  struct EngineStats {
    uint64_t slots_created = 0;    ///< pool expansions (new slots allocated)
    uint64_t pool_reuses = 0;      ///< slots served from the free list
    uint64_t boxed_callbacks = 0;  ///< payloads too large/non-trivial for SBO
  };

  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `callback` at absolute time `when`; times before `now()` are
  /// clamped to `now()` (the event fires next).
  EventId ScheduleAt(SimTime when, EventCallback callback);

  /// Schedules `callback` `delay` seconds from now (negative clamps to 0).
  EventId ScheduleAfter(SimTime delay, EventCallback callback);

  /// Removes a pending event from the heap in place; returns false (and
  /// does nothing) if it already fired, was cancelled, or never existed.
  bool Cancel(EventId id);

  /// Moves a pending event to absolute time `when` (clamped to `now()`)
  /// without touching its payload. Ties at the new time fire after events
  /// already scheduled there, exactly as a cancel + re-schedule would, but
  /// with no churn. Returns false if the event is not pending.
  bool Reschedule(EventId id, SimTime when);

  /// Earliest pending timestamp, if any. Lets batching callers drain work
  /// inline while they remain ahead of the rest of the simulation. Not
  /// const: it settles the heap root first (see `Root`).
  bool NextEventTime(SimTime* when) {
    Settle();
    if (heap_.empty()) return false;
    *when = heap_.front().when;
    return true;
  }

  /// Accounts one logical event executed inline by the current callback
  /// (batched delivery): advances `now()` to `when` and keeps
  /// `events_processed()` — and the backlog-trace cadence — identical to
  /// scheduling it as a separate event. `when` must not precede `now()`
  /// nor overtake the earliest pending event.
  void AdvanceInline(SimTime when);

  /// Runs events until the queue is empty.
  void Run();

  /// Runs events with timestamp <= `end_time`, then sets `now()` to
  /// `end_time` (even if the queue still has later events).
  void RunUntil(SimTime end_time);

  /// Runs events with timestamp strictly < `end_time`, then sets `now()` to
  /// `end_time`. The half-open variant the sharded engine's conservative
  /// windows use: events at exactly a stop point belong to the next phase
  /// (after barrier deliveries and control actions at that time).
  void RunBefore(SimTime end_time);

  /// Executes exactly one event if available; returns false on empty queue.
  bool Step();

  uint64_t events_processed() const { return events_processed_; }

  /// Attaches a trace recorder: every `sample_interval` processed events the
  /// engine emits a `pending_events` counter sample (the event backlog over
  /// time). Null detaches; the default costs one pointer check per event.
  void set_trace_recorder(obs::TraceRecorder* recorder, uint64_t sample_interval = 1024);

  /// Pending (not yet fired, not cancelled) events — exact, O(1).
  size_t pending_events() const {
    return heap_.size() - (root_ == Root::kVacant ? 1 : 0);
  }

  /// Allocation accounting for the zero-alloc steady-state guarantee: once
  /// `slots_created` stops growing and `boxed_callbacks` stays 0, scheduling
  /// recycles pooled slots without touching the heap.
  const EngineStats& stats() const { return stats_; }

  /// Current size of the slot pool (allocated once, then recycled).
  size_t pool_slots() const { return slots_.size(); }

 private:
  static constexpr uint32_t kNullPos = 0xffffffffu;

  /// What `heap_[0]` holds between a `Step` and the next read of the heap
  /// order (`Step`, `NextEventTime`, `RunUntil`, `RunBefore`). `Step` leaves
  /// the fired entry at the root as a sentinel. Its key is no later than
  /// any key a callback can create (times clamp to `now()`, sequences only
  /// grow), so every other sift stops below it and the subtrees under the
  /// root stay valid heaps. The key stays in place until the root settles.
  enum class Root : uint8_t {
    kSettled,   ///< the root is the pending minimum (or the heap is empty)
    kVacant,    ///< only the sentinel: no pending event holds the root
    kOccupied,  ///< a pending event holds the root; its key waits in
                ///< `root_when_` and `root_sequence_`
  };

  /// Heap keys are stored in the heap array itself, so sift comparisons
  /// never chase the slot pool.
  struct HeapEntry {
    SimTime when;
    uint64_t sequence;
    uint32_t slot;
  };

  /// One pooled event. `when`/`sequence` live in the heap entry; the slot
  /// holds identity (generation) and payload.
  struct Slot {
    uint32_t generation = 1;
    uint32_t heap_pos = kNullPos;
    uint32_t next_free = kNullPos;
    EventCallback callback;
  };

  static bool Later(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.sequence > b.sequence;
  }

  EventId IdOf(uint32_t slot_index) const {
    return (static_cast<EventId>(slots_[slot_index].generation) << 32) | slot_index;
  }

  /// Resolves an id to its live slot index, or kNullPos if stale.
  uint32_t FindSlot(EventId id) const;

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot_index);

  /// Makes `heap_[0]` the pending minimum: pops a vacant sentinel, or
  /// sifts the root occupant down under its own key.
  void Settle() {
    if (root_ != Root::kSettled) SettleRoot();
  }
  void SettleRoot();

  void HeapPush(uint32_t slot_index, SimTime when, uint64_t sequence);
  void HeapRemoveAt(size_t pos);
  size_t SiftUp(size_t pos);
  size_t SiftDown(size_t pos);
  void MaybeSampleBacklog();

  obs::TraceRecorder* trace_recorder_ = nullptr;
  uint64_t trace_sample_interval_ = 1024;

  SimTime now_ = 0.0;
  uint64_t next_sequence_ = 1;
  uint64_t events_processed_ = 0;
  EngineStats stats_;

  std::vector<HeapEntry> heap_;
  Root root_ = Root::kSettled;
  SimTime root_when_ = 0.0;
  uint64_t root_sequence_ = 0;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNullPos;
};

}  // namespace laar::sim

#endif  // LAAR_SIM_SIMULATOR_H_
