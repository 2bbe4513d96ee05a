#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "laar/common/rng.h"
#include "laar/sim/simulator.h"

namespace laar::sim {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(3.0, [&] { order.push_back(3); });
  simulator.ScheduleAt(1.0, [&] { order.push_back(1); });
  simulator.ScheduleAt(2.0, [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(simulator.now(), 3.0);
  EXPECT_EQ(simulator.events_processed(), 3u);
}

TEST(SimulatorTest, EqualTimestampsFireInSchedulingOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    simulator.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator simulator;
  double fired_at = -1.0;
  simulator.ScheduleAt(2.0, [&] {
    simulator.ScheduleAfter(0.5, [&] { fired_at = simulator.now(); });
  });
  simulator.Run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(SimulatorTest, PastTimesClampToNow) {
  Simulator simulator;
  double fired_at = -1.0;
  simulator.ScheduleAt(5.0, [&] {
    simulator.ScheduleAt(1.0, [&] { fired_at = simulator.now(); });
  });
  simulator.Run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
  Simulator other;
  other.ScheduleAfter(-3.0, [] {});
  other.Run();
  EXPECT_DOUBLE_EQ(other.now(), 0.0);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  const EventId id = simulator.ScheduleAt(1.0, [&] { fired = true; });
  simulator.Cancel(id);
  simulator.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(simulator.events_processed(), 0u);
}

TEST(SimulatorTest, CancelOneOfMany) {
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(1.0, [&] { order.push_back(1); });
  const EventId id = simulator.ScheduleAt(2.0, [&] { order.push_back(2); });
  simulator.ScheduleAt(3.0, [&] { order.push_back(3); });
  simulator.Cancel(id);
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator simulator;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    simulator.ScheduleAt(t, [&fired, &simulator] { fired.push_back(simulator.now()); });
  }
  simulator.RunUntil(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(simulator.now(), 2.5);
  EXPECT_EQ(simulator.pending_events(), 2u);
  simulator.RunUntil(10.0);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_DOUBLE_EQ(simulator.now(), 10.0);
}

TEST(SimulatorTest, RunUntilAdvancesTimeWithEmptyQueue) {
  Simulator simulator;
  simulator.RunUntil(7.0);
  EXPECT_DOUBLE_EQ(simulator.now(), 7.0);
}

TEST(SimulatorTest, EventsCanScheduleChains) {
  Simulator simulator;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) simulator.ScheduleAfter(1.0, tick);
  };
  simulator.ScheduleAfter(1.0, tick);
  simulator.Run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(simulator.now(), 10.0);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator simulator;
  int fired = 0;
  simulator.ScheduleAt(1.0, [&] { ++fired; });
  simulator.ScheduleAt(2.0, [&] { ++fired; });
  EXPECT_TRUE(simulator.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(simulator.Step());
  EXPECT_FALSE(simulator.Step());
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelInsideEarlierEvent) {
  Simulator simulator;
  bool fired = false;
  EventId later = simulator.ScheduleAt(2.0, [&] { fired = true; });
  simulator.ScheduleAt(1.0, [&] { simulator.Cancel(later); });
  simulator.Run();
  EXPECT_FALSE(fired);
}

// Regression: cancelling an id that already fired used to leave a permanent
// tombstone in the old lazy-cancellation scheme, leaking memory and skewing
// pending_events() low for the rest of the run. The indexed heap makes it
// an exact no-op.
TEST(SimulatorTest, CancelAfterFireIsExactNoOp) {
  Simulator simulator;
  const EventId fired_id = simulator.ScheduleAt(1.0, [] {});
  simulator.ScheduleAt(2.0, [] {});
  simulator.RunUntil(1.5);
  EXPECT_EQ(simulator.pending_events(), 1u);
  EXPECT_FALSE(simulator.Cancel(fired_id));
  EXPECT_EQ(simulator.pending_events(), 1u);  // old engine reported 0 here
  EXPECT_FALSE(simulator.Reschedule(fired_id, 3.0));
  simulator.Run();
  EXPECT_EQ(simulator.events_processed(), 2u);
}

TEST(SimulatorTest, CancelReportsWhetherItRemoved) {
  Simulator simulator;
  const EventId id = simulator.ScheduleAt(1.0, [] {});
  EXPECT_TRUE(simulator.Cancel(id));
  EXPECT_FALSE(simulator.Cancel(id));
  EXPECT_FALSE(simulator.Cancel(kInvalidEvent));
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, RescheduleMovesEventBothDirections) {
  Simulator simulator;
  std::vector<int> order;
  const EventId a = simulator.ScheduleAt(5.0, [&] { order.push_back(1); });
  simulator.ScheduleAt(3.0, [&] { order.push_back(2); });
  const EventId c = simulator.ScheduleAt(1.0, [&] { order.push_back(3); });
  EXPECT_TRUE(simulator.Reschedule(a, 2.0));  // earlier
  EXPECT_TRUE(simulator.Reschedule(c, 9.0));  // later
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(simulator.now(), 9.0);
}

// A reschedule ties like a fresh schedule: at the new timestamp it fires
// after events already sitting there, however early it was scheduled
// originally.
TEST(SimulatorTest, RescheduleTieBreaksAsFreshSchedule) {
  Simulator simulator;
  std::vector<int> order;
  const EventId first = simulator.ScheduleAt(1.0, [&] { order.push_back(1); });
  simulator.ScheduleAt(4.0, [&] { order.push_back(2); });
  EXPECT_TRUE(simulator.Reschedule(first, 4.0));
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(SimulatorTest, ReschedulePastTimesClampToNow) {
  Simulator simulator;
  double fired_at = -1.0;
  EventId id = simulator.ScheduleAt(8.0, [&] { fired_at = simulator.now(); });
  simulator.ScheduleAt(5.0, [&] { simulator.Reschedule(id, 1.0); });
  simulator.Run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

// Exercises sift paths across the 4-ary layout boundaries: a few hundred
// equal-timestamp events interleaved with earlier/later ones must still
// fire in exact scheduling order.
TEST(SimulatorTest, ManyEqualTimestampsFireInSchedulingOrderAcrossArity) {
  Simulator simulator;
  std::vector<int> order;
  std::vector<EventId> cancelled;
  for (int i = 0; i < 300; ++i) {
    simulator.ScheduleAt(2.0, [&order, i] { order.push_back(i); });
    if (i % 7 == 0) {
      cancelled.push_back(simulator.ScheduleAt(1.0 + 0.001 * i, [&] {
        ADD_FAILURE() << "cancelled event fired";
      }));
    }
  }
  for (EventId id : cancelled) EXPECT_TRUE(simulator.Cancel(id));
  simulator.Run();
  ASSERT_EQ(order.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, NextEventTimePeeksEarliestPending) {
  Simulator simulator;
  SimTime when = 0.0;
  EXPECT_FALSE(simulator.NextEventTime(&when));
  simulator.ScheduleAt(4.0, [] {});
  const EventId early = simulator.ScheduleAt(2.0, [] {});
  ASSERT_TRUE(simulator.NextEventTime(&when));
  EXPECT_DOUBLE_EQ(when, 2.0);
  simulator.Cancel(early);
  ASSERT_TRUE(simulator.NextEventTime(&when));
  EXPECT_DOUBLE_EQ(when, 4.0);
}

TEST(SimulatorTest, AdvanceInlineAccountsLikeAnEvent) {
  Simulator simulator;
  simulator.ScheduleAt(1.0, [&] {
    simulator.AdvanceInline(1.5);
    simulator.AdvanceInline(2.0);
  });
  simulator.ScheduleAt(3.0, [] {});
  simulator.Run();
  // One scheduled event + two inline advances + one trailing event.
  EXPECT_EQ(simulator.events_processed(), 4u);
  EXPECT_DOUBLE_EQ(simulator.now(), 3.0);
}

// A seeded differential check of the firing contract against a plain
// reference model: an ordered set of (when, sequence) keys with its own
// sequence counter. Every ScheduleAt and every Reschedule that finds its
// event draws the next sequence, times before now() clamp to now(), and the
// least key fires next. Callbacks schedule on a coarse time grid (ties and
// past times); cancel and reschedule random ids, fired ids and the id they
// scheduled last, some of them twice; peek NextEventTime; and advance
// inline. The driver mixes Step, RunUntil, RunBefore and the same
// operations outside any callback. Every fire, every Cancel/Reschedule
// result, and now(), events_processed() and pending_events() after each
// operation must match the model.
class FiringOrderModel {
 public:
  struct Coverage {
    int cancels[2] = {0, 0};      ///< by expected result (false, true)
    int reschedules[2] = {0, 0};  ///< by expected result (false, true)
    int last_scheduled_hits = 0;  ///< pending targets scheduled just before
    int repeats = 0;
    int peeks = 0;
    int advances = 0;
  };

  /// Runs until `max_fires` events fired, keeping at least `population`
  /// pending until then.
  FiringOrderModel(uint64_t seed, int max_fires, size_t population)
      : rng_(seed), max_fires_(max_fires), population_(population) {}

  void Run() {
    for (int i = 0; i < 32; ++i) Schedule();
    while (!pending_.empty() && mismatches_ == 0) {
      const int64_t action = rng_.UniformInt(0, 3);
      const SimTime end = now_ + kGrid * static_cast<double>(rng_.UniformInt(0, 8));
      if (action == 0) {
        Check(sim_.Step(), "Step with events pending");
      } else if (action == 1) {
        run_end_ = end;
        sim_.RunUntil(end);
        Check(pending_.empty() || std::get<0>(*pending_.begin()) > end,
              "RunUntil left an event at or before its end");
        now_ = std::max(now_, end);
      } else if (action == 2) {
        run_end_ = end;
        run_end_inclusive_ = false;
        sim_.RunBefore(end);
        Check(pending_.empty() || std::get<0>(*pending_.begin()) >= end,
              "RunBefore left an event before its end");
        now_ = std::max(now_, end);
      } else {
        RandomOps(rng_.UniformInt(1, 3), /*fired=*/-1);
      }
      run_end_ = std::numeric_limits<SimTime>::infinity();
      run_end_inclusive_ = true;
      CheckCounters("driver");
    }
    Check(!sim_.Step(), "Step on an empty queue");
    CheckCounters("end");
  }

  int fires() const { return fires_; }
  int mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }
  const Coverage& coverage() const { return coverage_; }

 private:
  static constexpr double kGrid = 0.25;  // exact in binary, so ties are exact

  struct Event {
    EventId id = kInvalidEvent;
    bool pending = false;
    SimTime when = 0.0;
    uint64_t sequence = 0;
  };

  void Check(bool ok, const char* what) {
    if (ok) return;
    if (mismatches_++ == 0) {
      first_mismatch_ = std::string(what) + " (after " + std::to_string(fires_) + " fires)";
    }
  }

  void CheckCounters(const char* where) {
    Check(sim_.now() == now_, where);
    Check(sim_.events_processed() == processed_, where);
    Check(sim_.pending_events() == pending_.size(), where);
  }

  SimTime GridTime() { return now_ + kGrid * static_cast<double>(rng_.UniformInt(-2, 6)); }

  void Insert(int token, SimTime when) {
    Event& event = events_[static_cast<size_t>(token)];
    event.pending = true;
    event.when = std::max(when, now_);
    event.sequence = next_sequence_++;
    pending_.emplace(event.when, event.sequence, token);
  }

  void Erase(int token) {
    Event& event = events_[static_cast<size_t>(token)];
    pending_.erase({event.when, event.sequence, token});
    event.pending = false;
  }

  void Schedule() {
    const int token = static_cast<int>(events_.size());
    const SimTime when = GridTime();
    events_.push_back({});
    events_.back().id = sim_.ScheduleAt(when, [this, token] { OnFire(token); });
    Insert(token, when);
    last_scheduled_ = token;
  }

  /// The id scheduled last, the firing event's own, a pending id, any id
  /// ever issued, or kInvalidEvent (-1).
  int PickTarget(int fired) {
    const int64_t pick = rng_.UniformInt(0, 19);
    if (pick < 6) return last_scheduled_;
    if (pick < 8) return fired;
    if (pick < 14 && !pending_.empty()) {
      const auto skip = rng_.UniformInt(0, static_cast<int64_t>(pending_.size()) - 1);
      return std::get<2>(*std::next(pending_.begin(), skip));
    }
    if (pick == 19 || events_.empty()) return -1;
    return static_cast<int>(rng_.UniformInt(0, static_cast<int64_t>(events_.size()) - 1));
  }

  bool IsPending(int token) const {
    return token >= 0 && events_[static_cast<size_t>(token)].pending;
  }

  EventId IdOf(int token) const {
    return token < 0 ? kInvalidEvent : events_[static_cast<size_t>(token)].id;
  }

  void CancelOrReschedule(bool cancel, int fired) {
    const int target = PickTarget(fired);
    const int times = rng_.Bernoulli(0.25) ? 2 : 1;
    coverage_.repeats += times - 1;
    if (target >= 0 && target == last_scheduled_ && IsPending(target)) {
      ++coverage_.last_scheduled_hits;
    }
    for (int i = 0; i < times; ++i) {
      const bool expected = IsPending(target);
      if (cancel) {
        ++coverage_.cancels[expected];
        Check(sim_.Cancel(IdOf(target)) == expected, "Cancel result");
        if (expected) Erase(target);
      } else {
        ++coverage_.reschedules[expected];
        const SimTime when = GridTime();
        Check(sim_.Reschedule(IdOf(target), when) == expected, "Reschedule result");
        if (expected) {
          Erase(target);
          Insert(target, when);
        }
      }
    }
  }

  void RandomOps(int64_t count, int fired) {
    if (pending_.size() < population_ && fires_ < max_fires_) Schedule();
    for (int64_t i = 0; i < count; ++i) {
      const int64_t op = rng_.UniformInt(0, 9);
      if (op < 4) {
        if (fires_ < max_fires_) Schedule();
      } else if (op < 6) {
        CancelOrReschedule(/*cancel=*/true, fired);
      } else if (op < 8) {
        CancelOrReschedule(/*cancel=*/false, fired);
      } else if (op == 8 || fired < 0) {
        ++coverage_.peeks;
        SimTime when = -1.0;
        const bool found = sim_.NextEventTime(&when);
        Check(found == !pending_.empty(), "NextEventTime result");
        if (found && !pending_.empty()) {
          Check(when == std::get<0>(*pending_.begin()), "NextEventTime time");
        }
      } else {
        // Inline work may not overtake the earliest pending event.
        ++coverage_.advances;
        const int64_t room =
            pending_.empty()
                ? 4
                : static_cast<int64_t>((std::get<0>(*pending_.begin()) - now_) / kGrid) - 1;
        now_ += kGrid * static_cast<double>(rng_.UniformInt(0, std::max<int64_t>(0, room)));
        sim_.AdvanceInline(now_);
        ++processed_;
      }
      CheckCounters("operation");
    }
  }

  void OnFire(int token) {
    ++fires_;
    if (pending_.empty()) {
      Check(false, "an event fired with none pending");
      return;
    }
    const auto [when, sequence, expected] = *pending_.begin();
    Check(token == expected, "firing order");
    Check(run_end_inclusive_ ? when <= run_end_ : when < run_end_, "fired past the run's end");
    Erase(expected);
    now_ = when;
    ++processed_;
    CheckCounters("fire");
    last_scheduled_ = -1;
    RandomOps(rng_.UniformInt(1, 4), token);
  }

  Simulator sim_;
  Rng rng_;
  int max_fires_;
  size_t population_;
  std::set<std::tuple<SimTime, uint64_t, int>> pending_;
  std::vector<Event> events_;  // indexed by token
  uint64_t next_sequence_ = 1;
  SimTime now_ = 0.0;
  uint64_t processed_ = 0;
  // The end of the RunUntil (inclusive) or RunBefore call in progress.
  SimTime run_end_ = std::numeric_limits<SimTime>::infinity();
  bool run_end_inclusive_ = true;
  int last_scheduled_ = -1;
  int fires_ = 0;
  int mismatches_ = 0;
  std::string first_mismatch_;
  Coverage coverage_;
};

TEST(SimulatorTest, FiringOrderMatchesReferenceModel) {
  constexpr int kMaxFires = 40000;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    // 16 to 128 pending events: heaps two to four 4-ary levels deep.
    FiringOrderModel model(seed, kMaxFires, size_t{16} << (seed % 4));
    model.Run();
    EXPECT_EQ(model.mismatches(), 0) << "seed " << seed << ": " << model.first_mismatch();
    EXPECT_GE(model.fires(), kMaxFires) << "seed " << seed;
    // Every branch of the contract ran often enough to matter.
    const FiringOrderModel::Coverage& c = model.coverage();
    for (int result = 0; result < 2; ++result) {
      EXPECT_GT(c.cancels[result], 2000) << "seed " << seed;
      EXPECT_GT(c.reschedules[result], 2000) << "seed " << seed;
    }
    EXPECT_GT(c.last_scheduled_hits, 2000) << "seed " << seed;
    EXPECT_GT(c.repeats, 2000) << "seed " << seed;
    EXPECT_GT(c.peeks, 2000) << "seed " << seed;
    EXPECT_GT(c.advances, 2000) << "seed " << seed;
  }
}

// Steady-state churn must recycle pooled slots instead of growing the
// slab: after warm-up, slots_created stays flat while reuses climb. Run
// under ASan (-DLAAR_SANITIZE=address) this also proves the pool's
// payload lifetimes are clean.
TEST(SimulatorTest, PoolRecyclesSlotsUnderChurn) {
  Simulator simulator;
  int fired = 0;
  std::vector<EventId> pending;
  // Warm-up: build up a working set, cancel half, fire the rest.
  for (int round = 0; round < 3; ++round) {
    pending.clear();
    for (int i = 0; i < 64; ++i) {
      pending.push_back(
          simulator.ScheduleAfter(0.001 * (i + 1), [&fired] { ++fired; }));
    }
    for (size_t i = 0; i < pending.size(); i += 2) simulator.Cancel(pending[i]);
    simulator.Run();
  }
  const uint64_t created_after_warmup = simulator.stats().slots_created;
  const uint64_t reuses_before = simulator.stats().pool_reuses;
  for (int round = 0; round < 50; ++round) {
    pending.clear();
    for (int i = 0; i < 64; ++i) {
      pending.push_back(
          simulator.ScheduleAfter(0.001 * (i + 1), [&fired] { ++fired; }));
    }
    for (size_t i = 0; i < pending.size(); i += 2) {
      simulator.Reschedule(pending[i], simulator.now() + 0.5);
    }
    for (size_t i = 1; i < pending.size(); i += 4) simulator.Cancel(pending[i]);
    simulator.Run();
  }
  EXPECT_EQ(simulator.stats().slots_created, created_after_warmup);
  EXPECT_GT(simulator.stats().pool_reuses, reuses_before);
  EXPECT_EQ(simulator.stats().boxed_callbacks, 0u);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, OversizeCallbacksAreBoxedAndCounted) {
  Simulator simulator;
  struct Big {
    char payload[EventCallback::kInlineBytes + 8] = {};
  };
  Big big;
  big.payload[0] = 42;
  char seen = 0;
  simulator.ScheduleAt(1.0, [big, &seen] { seen = big.payload[0]; });
  EXPECT_EQ(simulator.stats().boxed_callbacks, 1u);
  simulator.Run();
  EXPECT_EQ(seen, 42);
  // Small trivially-copyable captures stay inline.
  simulator.ScheduleAt(2.0, [&seen] { seen = 7; });
  simulator.Run();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(simulator.stats().boxed_callbacks, 1u);
}

}  // namespace
}  // namespace laar::sim
