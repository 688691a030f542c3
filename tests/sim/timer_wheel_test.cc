// TimerWheel (timer band) unit tests plus the differential stress against
// the event queue: under a random arm/re-arm/cancel/advance workload, with
// more of the same issued from inside timer callbacks, the band must produce
// exactly the dispatch sequence the EventQueue oracle does.
#include "src/sim/timer_wheel.h"

#include <functional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/time.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"

namespace vsched {
namespace {

// Drains every wheel timer with deadline <= `until`, appending deadlines to
// `fired` via the timers' own callbacks (registered by the caller).
void DrainUntil(TimerWheel& wheel, TimeNs until) {
  for (;;) {
    TimeNs next = wheel.NextDeadlineAtMost(until);
    if (next == kTimeInfinity) {
      return;
    }
    wheel.RunOne(next);
  }
}

TEST(TimerWheel, FiresAtExactDeadline) {
  TimerWheel wheel;
  std::vector<TimeNs> fired;
  TimerId id = wheel.Register([&] { fired.push_back(TimeNs{12345}); });
  wheel.Arm(id, 12345);
  EXPECT_TRUE(wheel.IsArmed(id));
  EXPECT_EQ(wheel.ArmedAt(id), 12345);
  EXPECT_EQ(wheel.NextDeadlineAtMost(12344), kTimeInfinity);
  EXPECT_EQ(wheel.NextDeadlineAtMost(12345), 12345);
  wheel.RunOne(12345);
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_FALSE(wheel.IsArmed(id));
  EXPECT_EQ(wheel.ArmedAt(id), kTimeInfinity);
}

TEST(TimerWheel, SameDeadlineFiresInRegistrationOrder) {
  TimerWheel wheel;
  std::vector<int> order;
  TimerId a = wheel.Register([&] { order.push_back(0); });
  TimerId b = wheel.Register([&] { order.push_back(1); });
  TimerId c = wheel.Register([&] { order.push_back(2); });
  // Arm in scrambled order: dispatch is by (deadline, id), not arm order.
  wheel.Arm(c, MsToNs(5));
  wheel.Arm(a, MsToNs(5));
  wheel.Arm(b, MsToNs(5));
  DrainUntil(wheel, MsToNs(5));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  (void)a;
  (void)b;
  (void)c;
}

TEST(TimerWheel, FarDeadlineCascadesDownToExactFiring) {
  TimerWheel wheel;
  std::vector<TimeNs> fired;
  // Far beyond every other deadline in the tests (~73 minutes).
  const TimeNs kWhen = (TimeNs{1} << 42) + 777;
  TimerId id = wheel.Register([&] { fired.push_back(kWhen); });
  wheel.Arm(id, kWhen);
  // A near probe must not disturb it.
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(1)), kTimeInfinity);
  EXPECT_TRUE(wheel.IsArmed(id));
  EXPECT_EQ(wheel.NextDeadlineAtMost(kWhen - 1), kTimeInfinity);
  EXPECT_EQ(wheel.NextDeadlineAtMost(kWhen), kWhen);
  wheel.RunOne(kWhen);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(wheel.ArmedCount(), 0u);
}

TEST(TimerWheel, CancelInBucketAndReArm) {
  TimerWheel wheel;
  int fires = 0;
  TimerId id = wheel.Register([&] { ++fires; });
  wheel.Arm(id, MsToNs(3));
  EXPECT_TRUE(wheel.Cancel(id));
  EXPECT_FALSE(wheel.Cancel(id));  // already disarmed
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(10)), kTimeInfinity);
  wheel.Arm(id, MsToNs(7));
  DrainUntil(wheel, MsToNs(10));
  EXPECT_EQ(fires, 1);
}

TEST(TimerWheel, CancelAfterPromotionToReady) {
  TimerWheel wheel;
  int fires = 0;
  TimerId victim = wheel.Register([&] { ++fires; });
  TimerId keeper = wheel.Register([&] { ++fires; });
  wheel.Arm(victim, MsToNs(2));
  wheel.Arm(keeper, MsToNs(2) + 100);
  // Cancelling after a probe has seen the timer as the earliest must still
  // win: the probe is a pure peek.
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(3)), MsToNs(2));
  EXPECT_TRUE(wheel.Cancel(victim));
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(3)), MsToNs(2) + 100);
  wheel.RunOne(MsToNs(2) + 100);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(wheel.ArmedCount(), 0u);
}

TEST(TimerWheel, ReArmMovesTheDeadline) {
  TimerWheel wheel;
  std::vector<TimeNs> fired;
  TimerId id = wheel.Register([&] { fired.push_back(wheel.ArmedAt(id)); });
  wheel.Arm(id, MsToNs(1));
  wheel.Arm(id, MsToNs(4));  // re-arm replaces, never duplicates
  EXPECT_EQ(wheel.ArmedCount(), 1u);
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(2)), kTimeInfinity);
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(4)), MsToNs(4));
  wheel.RunOne(MsToNs(4));
  EXPECT_EQ(fired.size(), 1u);
}

TEST(TimerWheel, PeriodicSelfReArmFromCallback) {
  TimerWheel wheel;
  int fires = 0;
  TimerId id = kInvalidTimerId;
  id = wheel.Register([&] {
    ++fires;
    // fired_count() is already incremented for this firing, so the next grid
    // point is one period further.
    wheel.Arm(id, static_cast<TimeNs>(wheel.fired_count() + 1) * MsToNs(1));
  });
  wheel.Arm(id, MsToNs(1));
  DrainUntil(wheel, MsToNs(10));
  EXPECT_EQ(fires, 10);
  EXPECT_TRUE(wheel.IsArmed(id));
  EXPECT_EQ(wheel.ArmedAt(id), MsToNs(11));
}

TEST(TimerWheel, UnregisterRecyclesIdsLifo) {
  TimerWheel wheel;
  TimerId a = wheel.Register([] {});
  TimerId b = wheel.Register([] {});
  EXPECT_NE(a, kInvalidTimerId);
  EXPECT_NE(b, a);
  wheel.Arm(b, MsToNs(1));
  wheel.Unregister(b);  // cancels implicitly
  EXPECT_EQ(wheel.ArmedCount(), 0u);
  TimerId c = wheel.Register([] {});
  EXPECT_EQ(c, b);  // LIFO reuse keeps id sequences deterministic
  // A recycled slot must not fire the previous owner's pending state.
  EXPECT_EQ(wheel.NextDeadlineAtMost(MsToNs(10)), kTimeInfinity);
}

TEST(TimerWheel, StillFiresAtTracksDispatchPosition) {
  TimerWheel wheel;
  std::vector<std::pair<TimerId, bool>> seen;
  TimerId a = wheel.Register([&] { seen.emplace_back(a, wheel.StillFiresAt(a, MsToNs(1))); });
  TimerId b = wheel.Register([&] { seen.emplace_back(b, wheel.StillFiresAt(b, MsToNs(1))); });
  wheel.Arm(a, MsToNs(1));
  wheel.Arm(b, MsToNs(1));
  // Before any dispatch at t, every id still fires at t.
  EXPECT_TRUE(wheel.StillFiresAt(a, MsToNs(1)));
  DrainUntil(wheel, MsToNs(1));
  ASSERT_EQ(seen.size(), 2u);
  // Inside each callback the firing timer itself has been passed already.
  EXPECT_FALSE(seen[0].second);
  EXPECT_FALSE(seen[1].second);
  EXPECT_FALSE(wheel.StillFiresAt(a, MsToNs(1)));
  EXPECT_FALSE(wheel.StillFiresAt(b, MsToNs(1)));
  EXPECT_TRUE(wheel.StillFiresAt(b, MsToNs(2)));  // future instants unaffected
}

TEST(TimerWheel, InsideItsCallbackATimerIsIdle) {
  TimerWheel wheel;
  bool armed_inside = true;
  bool cancel_inside = true;
  TimeNs armed_at_inside = 0;
  TimerId id = kInvalidTimerId;
  id = wheel.Register([&] {
    armed_inside = wheel.IsArmed(id);
    armed_at_inside = wheel.ArmedAt(id);
    cancel_inside = wheel.Cancel(id);
  });
  wheel.Arm(id, MsToNs(1));
  DrainUntil(wheel, MsToNs(5));
  EXPECT_FALSE(armed_inside);
  EXPECT_EQ(armed_at_inside, kTimeInfinity);
  EXPECT_FALSE(cancel_inside);
  EXPECT_FALSE(wheel.IsArmed(id));
  EXPECT_EQ(wheel.ArmedCount(), 0u);
  EXPECT_EQ(wheel.NextDeadlineAtMost(kTimeInfinity - 1), kTimeInfinity);
}

TEST(TimerWheel, SelfReArmEarlierAndLaterThanPendingTimersFires) {
  TimerWheel wheel;
  std::vector<std::pair<int, TimeNs>> order;
  TimeNs now = 0;
  TimerId a = kInvalidTimerId;
  a = wheel.Register([&] {
    order.emplace_back(0, now);
    if (now == MsToNs(10)) {
      wheel.Arm(a, MsToNs(20));  // still ahead of b: stays the earliest
    } else if (now == MsToNs(20)) {
      wheel.Arm(a, MsToNs(40));  // now behind b: sinks below it
    }
  });
  TimerId b = wheel.Register([&] { order.emplace_back(1, now); });
  wheel.Arm(a, MsToNs(10));
  wheel.Arm(b, MsToNs(30));
  for (TimeNs next; (next = wheel.NextDeadlineAtMost(kTimeInfinity - 1)) != kTimeInfinity;) {
    now = next;
    wheel.RunOne(next);
  }
  const std::vector<std::pair<int, TimeNs>> want = {
      {0, MsToNs(10)}, {0, MsToNs(20)}, {1, MsToNs(30)}, {0, MsToNs(40)}};
  EXPECT_EQ(order, want);
  EXPECT_EQ(wheel.ArmedCount(), 0u);
}

TEST(TimerWheel, CallbackReRegistersItsOwnIdAndArmsIt) {
  TimerWheel wheel;
  struct Context {
    TimerWheel* wheel;
    TimerId id = kInvalidTimerId;
    TimerId reborn = kInvalidTimerId;
    int old_fires = 0;
    int new_fires = 0;
  } ctx{&wheel};
  ctx.id = wheel.Register([c = &ctx] {
    // Copy the capture out first: Unregister and Register below replace
    // this closure's storage while it runs.
    Context* self = c;
    ++self->old_fires;
    self->wheel->Unregister(self->id);
    self->reborn = self->wheel->Register([self] { ++self->new_fires; });
    self->wheel->Arm(self->reborn, MsToNs(3));
  });
  wheel.Arm(ctx.id, MsToNs(1));
  DrainUntil(wheel, MsToNs(10));
  EXPECT_EQ(ctx.reborn, ctx.id);  // LIFO recycling hands the same id back
  EXPECT_EQ(ctx.old_fires, 1);
  EXPECT_EQ(ctx.new_fires, 1);
  EXPECT_EQ(wheel.ArmedCount(), 0u);
  EXPECT_EQ(wheel.NextDeadlineAtMost(kTimeInfinity - 1), kTimeInfinity);
}

TEST(TimerWheel, LowerIdArmedAtTheDispatchingInstantFiresNext) {
  TimerWheel wheel;
  std::vector<int> order;
  std::vector<TimerId> ids(4);
  for (int i = 0; i < 4; ++i) {
    ids[static_cast<size_t>(i)] = wheel.Register([&, i] {
      order.push_back(i);
      if (i == 1) {
        wheel.Arm(ids[0], MsToNs(5));  // the instant being dispatched
      }
    });
  }
  wheel.Arm(ids[3], MsToNs(5));
  wheel.Arm(ids[1], MsToNs(5));
  wheel.Arm(ids[2], MsToNs(5));
  DrainUntil(wheel, MsToNs(5));
  // The late arm of id 0 fires right after its arming callback, ahead of the
  // higher ids still pending at this instant.
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3}));
}

TEST(TimerWheel, ArmedCountIsExactInsideACallback) {
  TimerWheel wheel;
  std::vector<size_t> counts;
  std::vector<TimerId> ids(3);
  ids[0] = wheel.Register([&] {
    counts.push_back(wheel.ArmedCount());  // the other two
    wheel.Arm(ids[0], MsToNs(9));
    counts.push_back(wheel.ArmedCount());  // self re-armed
    wheel.Cancel(ids[1]);
    counts.push_back(wheel.ArmedCount());
    wheel.Arm(ids[1], MsToNs(8));
    wheel.Arm(ids[1], MsToNs(7));  // re-arm of an armed timer: no change
    counts.push_back(wheel.ArmedCount());
    wheel.Cancel(ids[0]);
    counts.push_back(wheel.ArmedCount());
  });
  ids[1] = wheel.Register([] {});
  ids[2] = wheel.Register([] {});
  wheel.Arm(ids[0], MsToNs(1));
  wheel.Arm(ids[1], MsToNs(2));
  wheel.Arm(ids[2], MsToNs(3));
  EXPECT_EQ(wheel.ArmedCount(), 3u);
  ASSERT_EQ(wheel.NextDeadlineAtMost(MsToNs(1)), MsToNs(1));
  wheel.RunOne(MsToNs(1));
  EXPECT_EQ(counts, (std::vector<size_t>{2, 3, 2, 3, 2}));
  EXPECT_EQ(wheel.ArmedCount(), 2u);
  EXPECT_EQ(wheel.NextDeadlineAtMost(kTimeInfinity - 1), MsToNs(3));
}

// ---------------------------------------------------------------------------
// Differential stress: the band vs the EventQueue, identical dispatch
// sequences.
// ---------------------------------------------------------------------------

// One logical timer mirrored across both backends, with each backend's view
// of it kept apart (callbacks run at different times on the two sides).
// Deadlines are kept unique so (when) alone fixes the global order in both
// structures; same-deadline ordering has its own unit tests above (the
// queue breaks such ties by schedule order, the band by id — deliberately
// not comparable under random arm order).
struct MirroredTimer {
  TimerId timer = kInvalidTimerId;
  TimeNs wheel_deadline = kTimeInfinity;
  EventId event;
  TimeNs heap_deadline = kTimeInfinity;
  bool heap_armed = false;
};

// What one band callback did to some timer (possibly itself), replayed by
// the matching queue callback. `was_armed` is the band's Cancel result.
struct CallbackOp {
  enum Kind { kNone, kArm, kCancel } kind = kNone;
  int self = 0;
  int target = 0;
  TimeNs when = 0;
  bool was_armed = false;
};

TEST(TimerWheelDifferential, RandomOpsMatchHeapBackend) {
  constexpr int kTimers = 64;
  constexpr int kOps = 10000;
  TimerWheel wheel;
  EventQueue heap;
  Rng rng(0x7EE1);
  Rng callback_rng(0xCA11);

  std::vector<MirroredTimer> timers(kTimers);
  std::vector<std::pair<TimeNs, int>> wheel_fired;
  std::vector<std::pair<TimeNs, int>> heap_fired;
  std::set<TimeNs> used_deadlines;
  std::vector<CallbackOp> callback_ops;
  size_t replayed = 0;
  bool nested_ops = true;

  auto unique_deadline = [&](TimeNs want) {
    while (!used_deadlines.insert(want).second) {
      ++want;
    }
    return want;
  };
  // Deltas from sub-microsecond to ~70 s: 2^0 .. 2^36 ns.
  auto random_delta = [](Rng& r) {
    const int magnitude = static_cast<int>(r.UniformInt(0, 36));
    return 1 + static_cast<TimeNs>(r.UniformInt(0, (TimeNs{1} << magnitude)));
  };

  std::function<void(int)> heap_fire;
  auto heap_arm = [&](int j, TimeNs when) {
    MirroredTimer& t = timers[static_cast<size_t>(j)];
    if (t.heap_armed) {
      EXPECT_TRUE(heap.Cancel(t.event));
    }
    t.heap_deadline = when;
    t.heap_armed = true;
    t.event = heap.ScheduleAt(when, [&heap_fire, j] { heap_fire(j); });
  };
  auto heap_cancel = [&](int j) {
    MirroredTimer& t = timers[static_cast<size_t>(j)];
    if (t.heap_armed) {
      EXPECT_TRUE(heap.Cancel(t.event));
      t.heap_armed = false;
    }
  };
  heap_fire = [&](int i) {
    MirroredTimer& t = timers[static_cast<size_t>(i)];
    heap_fired.emplace_back(t.heap_deadline, i);
    t.heap_armed = false;
    ASSERT_LT(replayed, callback_ops.size());
    const CallbackOp& op = callback_ops[replayed++];
    ASSERT_EQ(op.self, i);
    if (op.kind == CallbackOp::kArm) {
      heap_arm(op.target, op.when);
    } else if (op.kind == CallbackOp::kCancel) {
      EXPECT_EQ(timers[static_cast<size_t>(op.target)].heap_armed, op.was_armed);
      heap_cancel(op.target);
    }
  };

  for (int i = 0; i < kTimers; ++i) {
    timers[static_cast<size_t>(i)].timer = wheel.Register([&, i] {
      const TimeNs now = timers[static_cast<size_t>(i)].wheel_deadline;
      wheel_fired.emplace_back(now, i);
      // Act on a random timer (itself included) from inside the callback:
      // re-arm it without cancelling first, or cancel it.
      CallbackOp op;
      op.self = i;
      const int roll = nested_ops ? static_cast<int>(callback_rng.UniformInt(0, 9)) : 9;
      op.target = static_cast<int>(callback_rng.UniformInt(0, kTimers - 1));
      MirroredTimer& target = timers[static_cast<size_t>(op.target)];
      if (roll < 3) {
        op.kind = CallbackOp::kArm;
        op.when = unique_deadline(now + random_delta(callback_rng) - 1);
        target.wheel_deadline = op.when;
        wheel.Arm(target.timer, op.when);
      } else if (roll < 5) {
        op.kind = CallbackOp::kCancel;
        op.was_armed = wheel.Cancel(target.timer);
      }
      callback_ops.push_back(op);
    });
  }

  TimeNs now = 0;
  for (int op = 0; op < kOps; ++op) {
    int roll = static_cast<int>(rng.UniformInt(0, 9));
    int i = static_cast<int>(rng.UniformInt(0, kTimers - 1));
    MirroredTimer& t = timers[static_cast<size_t>(i)];
    if (roll < 5) {
      // Arm: half the time cancel first, half the time re-arm in place.
      TimeNs when = unique_deadline(now + random_delta(rng));
      if (roll < 2) {
        wheel.Cancel(t.timer);
      }
      t.wheel_deadline = when;
      wheel.Arm(t.timer, when);
      heap_arm(i, when);
    } else if (roll < 7) {
      // Cancel.
      EXPECT_EQ(wheel.Cancel(t.timer), t.heap_armed);
      heap_cancel(i);
    } else {
      // Advance both backends through the same window.
      TimeNs until = now + static_cast<TimeNs>(rng.UniformInt(0, MsToNs(40)));
      DrainUntil(wheel, until);
      heap.RunUntil(until);
      now = until;
      ASSERT_EQ(wheel_fired.size(), heap_fired.size()) << "after op " << op;
      ASSERT_EQ(wheel.ArmedCount(), heap.PendingCount()) << "after op " << op;
    }
  }
  // Flush everything still pending; callbacks stop re-arming.
  nested_ops = false;
  DrainUntil(wheel, kTimeInfinity - 1);
  heap.RunUntil(kTimeInfinity - 1);

  ASSERT_EQ(wheel_fired.size(), heap_fired.size());
  EXPECT_EQ(wheel_fired, heap_fired);
  EXPECT_EQ(replayed, callback_ops.size());
  size_t nested_arms = 0;
  size_t nested_cancels = 0;
  for (const CallbackOp& op : callback_ops) {
    nested_arms += op.kind == CallbackOp::kArm ? 1 : 0;
    nested_cancels += op.kind == CallbackOp::kCancel && op.was_armed ? 1 : 0;
  }
  // The nested paths must really have been exercised (about 1.5k arms and
  // 150 effective cancels at this seed).
  EXPECT_GT(nested_arms, 1000u);
  EXPECT_GT(nested_cancels, 100u);
  EXPECT_EQ(wheel.ArmedCount(), 0u);
  EXPECT_EQ(heap.PendingCount(), 0u);
  EXPECT_EQ(wheel.NextDeadlineAtMost(kTimeInfinity - 1), kTimeInfinity);
}

// The same invariant one level up: Simulation::Every (wheel-backed) against a
// hand-scheduled heap chain produces the same firing timeline.
TEST(TimerWheelDifferential, PeriodicMatchesHeapChain) {
  Simulation sim(1);
  std::vector<TimeNs> wheel_ticks;
  sim.Every(MsToNs(1), [&] { wheel_ticks.push_back(sim.now()); });

  EventQueue heap;
  std::vector<TimeNs> heap_ticks;
  std::function<void()> chain = [&] {
    heap_ticks.push_back(heap.now());
    heap.ScheduleAfter(MsToNs(1), [&] { chain(); });
  };
  heap.ScheduleAfter(MsToNs(1), [&] { chain(); });

  sim.RunFor(MsToNs(100));
  heap.RunUntil(MsToNs(100));
  EXPECT_EQ(wheel_ticks, heap_ticks);
  EXPECT_EQ(wheel_ticks.size(), 100u);
}

}  // namespace
}  // namespace vsched
