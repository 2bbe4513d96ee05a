#include "laar/sim/simulator.h"

#include <algorithm>
#include <cassert>

#include "laar/obs/trace_recorder.h"

namespace laar::sim {

void Simulator::set_trace_recorder(obs::TraceRecorder* recorder,
                                   uint64_t sample_interval) {
  trace_recorder_ = recorder;
  trace_sample_interval_ = std::max<uint64_t>(1, sample_interval);
}

uint32_t Simulator::FindSlot(EventId id) const {
  const auto slot_index = static_cast<uint32_t>(id);
  const auto generation = static_cast<uint32_t>(id >> 32);
  if (slot_index >= slots_.size()) return kNullPos;
  const Slot& slot = slots_[slot_index];
  if (slot.generation != generation || slot.heap_pos == kNullPos) return kNullPos;
  return slot_index;
}

uint32_t Simulator::AllocSlot() {
  if (free_head_ != kNullPos) {
    ++stats_.pool_reuses;
    const uint32_t slot_index = free_head_;
    free_head_ = slots_[slot_index].next_free;
    slots_[slot_index].next_free = kNullPos;
    return slot_index;
  }
  ++stats_.slots_created;
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulator::FreeSlot(uint32_t slot_index) {
  Slot& slot = slots_[slot_index];
  // Bumping the generation here permanently invalidates every outstanding
  // id for this slot — a later Cancel/Reschedule of a fired event is a
  // no-op with no tombstone left behind.
  ++slot.generation;
  slot.callback.Reset();
  slot.heap_pos = kNullPos;
  slot.next_free = free_head_;
  free_head_ = slot_index;
}

void Simulator::HeapPush(uint32_t slot_index, SimTime when, uint64_t sequence) {
  slots_[slot_index].heap_pos = static_cast<uint32_t>(heap_.size());
  heap_.push_back(HeapEntry{when, sequence, slot_index});
  SiftUp(heap_.size() - 1);
}

size_t Simulator::SiftUp(size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 4;
    if (!Later(heap_[parent], entry)) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = static_cast<uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = static_cast<uint32_t>(pos);
  return pos;
}

size_t Simulator::SiftDown(size_t pos) {
  const HeapEntry entry = heap_[pos];
  const size_t size = heap_.size();
  for (;;) {
    const size_t first_child = 4 * pos + 1;
    if (first_child >= size) break;
    const size_t last_child = std::min(first_child + 4, size);
    size_t best = first_child;
    for (size_t child = first_child + 1; child < last_child; ++child) {
      if (Later(heap_[best], heap_[child])) best = child;
    }
    if (!Later(entry, heap_[best])) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].heap_pos = static_cast<uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = static_cast<uint32_t>(pos);
  return pos;
}

void Simulator::HeapRemoveAt(size_t pos) {
  slots_[heap_[pos].slot].heap_pos = kNullPos;
  const size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    slots_[heap_[pos].slot].heap_pos = static_cast<uint32_t>(pos);
    heap_.pop_back();
    // The displaced element may need to move either way relative to its
    // new subtree.
    SiftDown(SiftUp(pos));
  } else {
    heap_.pop_back();
  }
}

void Simulator::SettleRoot() {
  if (root_ == Root::kVacant) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
  } else {
    heap_.front().when = root_when_;
    heap_.front().sequence = root_sequence_;
    SiftDown(0);
  }
  root_ = Root::kSettled;
}

EventId Simulator::ScheduleAt(SimTime when, EventCallback callback) {
  if (when < now_) when = now_;
  if (callback.boxed()) ++stats_.boxed_callbacks;
  const uint32_t slot_index = AllocSlot();
  slots_[slot_index].callback = std::move(callback);
  if (root_ == Root::kVacant) {
    // Take the fired event's place; its sentinel key stays until the root
    // settles, so no sift runs now.
    heap_.front().slot = slot_index;
    slots_[slot_index].heap_pos = 0;
    root_when_ = when;
    root_sequence_ = next_sequence_++;
    root_ = Root::kOccupied;
  } else {
    HeapPush(slot_index, when, next_sequence_++);
  }
  return IdOf(slot_index);
}

EventId Simulator::ScheduleAfter(SimTime delay, EventCallback callback) {
  return ScheduleAt(now_ + (delay > 0.0 ? delay : 0.0), std::move(callback));
}

bool Simulator::Cancel(EventId id) {
  const uint32_t slot_index = FindSlot(id);
  if (slot_index == kNullPos) return false;
  const size_t pos = slots_[slot_index].heap_pos;
  if (pos == 0 && root_ == Root::kOccupied) {
    root_ = Root::kVacant;  // the sentinel key never left the root
  } else {
    HeapRemoveAt(pos);
  }
  FreeSlot(slot_index);
  return true;
}

bool Simulator::Reschedule(EventId id, SimTime when) {
  const uint32_t slot_index = FindSlot(id);
  if (slot_index == kNullPos) return false;
  if (when < now_) when = now_;
  const size_t pos = slots_[slot_index].heap_pos;
  if (pos == 0 && root_ == Root::kOccupied) {
    root_when_ = when;
    root_sequence_ = next_sequence_++;
    return true;
  }
  heap_[pos].when = when;
  heap_[pos].sequence = next_sequence_++;
  SiftDown(SiftUp(pos));
  return true;
}

void Simulator::MaybeSampleBacklog() {
  if (trace_recorder_ != nullptr && events_processed_ % trace_sample_interval_ == 0) {
    trace_recorder_->Counter(obs::EventName::kEngineBacklog, now_,
                             static_cast<double>(pending_events()));
  }
}

void Simulator::AdvanceInline(SimTime when) {
  assert(when >= now_);
  now_ = when;
  ++events_processed_;
  MaybeSampleBacklog();
}

bool Simulator::Step() {
  Settle();
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  // The fired entry stays at the root as the sentinel (see Root); the first
  // event the callback schedules takes its place. Move the payload out and
  // recycle the slot before invoking, so the callback can schedule (and
  // typically reuse this very slot) freely.
  root_ = Root::kVacant;
  EventCallback callback = std::move(slots_[top.slot].callback);
  FreeSlot(top.slot);
  now_ = top.when;
  ++events_processed_;
  MaybeSampleBacklog();
  callback();
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(SimTime end_time) {
  SimTime when;
  while (NextEventTime(&when) && when <= end_time) {
    Step();
  }
  if (now_ < end_time) now_ = end_time;
}

void Simulator::RunBefore(SimTime end_time) {
  SimTime when;
  while (NextEventTime(&when) && when < end_time) {
    Step();
  }
  if (now_ < end_time) now_ = end_time;
}

}  // namespace laar::sim
