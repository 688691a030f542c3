// Differential tests for the batched scheduling entry points: a
// EventQueue::PostBatch of N events and a TimerWheel::ArmBatch of N arms
// must produce byte-for-byte the dispatch sequence of N single
// ScheduleAt/Arm calls made in the same order. Both claims rest on dispatch
// being a total order — (when, seq) for the heap, (deadline, TimerId) for
// the wheel — independent of internal container shape, so the tests drive
// randomized mixed workloads and compare full dispatch traces.
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/time.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/timer_wheel.h"

namespace vsched {
namespace {

// Tagged dispatch record: (time fired, tag assigned at scheduling time).
using Trace = std::vector<std::pair<TimeNs, int>>;

Trace DrainQueue(EventQueue& q) {
  Trace trace;
  while (q.RunOne()) {
  }
  return trace;
}

TEST(PostBatchTest, MatchesSinglePostsExactly) {
  // One queue schedules via N singles, the other via PostBatch, from
  // identical random draws; their dispatch traces must be identical.
  Rng rng(0xBA7C);
  for (int round = 0; round < 20; ++round) {
    EventQueue singles;
    EventQueue batched;
    Trace trace_singles;
    Trace trace_batched;

    // A shared prefix of individually scheduled events, some cancelled, so
    // the batch lands in a non-trivial heap with a live free list.
    const int prefix = static_cast<int>(rng.UniformInt(0, 40));
    std::vector<EventId> cancel_singles;
    std::vector<EventId> cancel_batched;
    for (int i = 0; i < prefix; ++i) {
      TimeNs when = rng.UniformInt(0, UsToNs(100));
      int tag = 1000 + i;
      EventId a = singles.ScheduleAt(when, [&trace_singles, &singles, tag] {
        trace_singles.emplace_back(singles.now(), tag);
      });
      EventId b = batched.ScheduleAt(when, [&trace_batched, &batched, tag] {
        trace_batched.emplace_back(batched.now(), tag);
      });
      if (rng.UniformInt(0, 3) == 0) {
        cancel_singles.push_back(a);
        cancel_batched.push_back(b);
      }
    }
    for (size_t i = 0; i < cancel_singles.size(); ++i) {
      EXPECT_TRUE(singles.Cancel(cancel_singles[i]));
      EXPECT_TRUE(batched.Cancel(cancel_batched[i]));
    }

    // The batch itself: duplicate timestamps on purpose (FIFO among equals
    // is the property most at risk from heap-shape differences).
    const int n = static_cast<int>(rng.UniformInt(1, 200));
    std::vector<TimeNs> whens;
    for (int i = 0; i < n; ++i) {
      whens.push_back(rng.UniformInt(0, UsToNs(50)));
    }
    for (int i = 0; i < n; ++i) {
      singles.ScheduleAt(whens[static_cast<size_t>(i)], [&trace_singles, &singles, i] {
        trace_singles.emplace_back(singles.now(), i);
      });
    }
    batched.PostBatch(whens, [&trace_batched, &batched](size_t i) {
      return [&trace_batched, &batched, i] {
        trace_batched.emplace_back(batched.now(), static_cast<int>(i));
      };
    });
    EXPECT_EQ(singles.PendingCount(), batched.PendingCount());

    // A suffix of singles posted after the batch: seq numbering must have
    // advanced identically on both sides.
    const int suffix = static_cast<int>(rng.UniformInt(0, 20));
    for (int i = 0; i < suffix; ++i) {
      TimeNs when = rng.UniformInt(0, UsToNs(100));
      int tag = 2000 + i;
      singles.ScheduleAt(when, [&trace_singles, &singles, tag] {
        trace_singles.emplace_back(singles.now(), tag);
      });
      batched.ScheduleAt(when, [&trace_batched, &batched, tag] {
        trace_batched.emplace_back(batched.now(), tag);
      });
    }

    DrainQueue(singles);
    DrainQueue(batched);
    EXPECT_EQ(trace_singles, trace_batched) << "round " << round;
  }
}

TEST(PostBatchTest, BothHeapRepairStrategiesPreserveOrder) {
  // Small batch on a large heap takes the per-element sift-up path; large
  // batch on a small heap takes the Floyd rebuild. Same trace either way.
  for (int big_heap = 0; big_heap <= 1; ++big_heap) {
    EventQueue singles;
    EventQueue batched;
    Trace ts;
    Trace tb;
    const int existing = big_heap ? 500 : 4;
    for (int i = 0; i < existing; ++i) {
      TimeNs when = 10 + 7 * i;
      singles.ScheduleAt(when, [&ts, &singles, i] { ts.emplace_back(singles.now(), i); });
      batched.ScheduleAt(when, [&tb, &batched, i] { tb.emplace_back(batched.now(), i); });
    }
    std::vector<TimeNs> whens;
    const int n = big_heap ? 8 : 300;  // < existing/8 vs >= existing/8
    for (int i = 0; i < n; ++i) {
      whens.push_back(5 + 11 * (i % 97));
    }
    for (int i = 0; i < n; ++i) {
      singles.ScheduleAt(whens[static_cast<size_t>(i)],
                         [&ts, &singles, i] { ts.emplace_back(singles.now(), 10000 + i); });
    }
    batched.PostBatch(whens, [&tb, &batched](size_t i) {
      return [&tb, &batched, i] { tb.emplace_back(batched.now(), 10000 + static_cast<int>(i)); };
    });
    DrainQueue(singles);
    DrainQueue(batched);
    EXPECT_EQ(ts, tb) << "big_heap=" << big_heap;
  }
}

void DrainWheel(TimerWheel& wheel, TimeNs until) {
  for (;;) {
    TimeNs next = wheel.NextDeadlineAtMost(until);
    if (next == kTimeInfinity) {
      return;
    }
    wheel.RunOne(next);
  }
}

TEST(ArmBatchTest, MatchesSingleArmsExactly) {
  // Two wheels with identically registered timers; one armed by N Arm
  // calls, the other by one ArmBatch over the same (id, when) list. The
  // list includes re-arms of already-armed timers and deadlines from tens
  // of microseconds to hundreds of milliseconds.
  Rng rng(0xA8B7);
  for (int round = 0; round < 10; ++round) {
    TimerWheel s2;
    TimerWheel b2;
    Trace ts;
    Trace tb;
    const int kTimers = 64;
    std::vector<TimerId> ids_s;
    std::vector<TimerId> ids_b;
    for (int i = 0; i < kTimers; ++i) {
      // Tag with the timer index; the fire timestamp is recovered from the
      // armed deadline (read before dispatch pops it) via DrainWheel order,
      // so equal traces mean equal (deadline, id) dispatch sequences.
      ids_s.push_back(s2.Register([&ts, &s2, i] { ts.emplace_back(s2.fired_count(), i); }));
      ids_b.push_back(b2.Register([&tb, &b2, i] { tb.emplace_back(b2.fired_count(), i); }));
    }

    // Pre-arm a random subset individually on both wheels.
    for (int i = 0; i < kTimers; ++i) {
      if (rng.UniformInt(0, 1) == 0) {
        TimeNs when = 1 + rng.UniformInt(0, MsToNs(20));
        s2.Arm(ids_s[static_cast<size_t>(i)], when);
        b2.Arm(ids_b[static_cast<size_t>(i)], when);
      }
    }

    // The batch: random ids (some already armed — ArmBatch must re-arm),
    // deadlines spread over three ranges.
    const int n = static_cast<int>(rng.UniformInt(1, 100));
    std::vector<std::pair<TimerId, TimeNs>> batch_b;
    std::vector<std::pair<size_t, TimeNs>> draws;
    for (int i = 0; i < n; ++i) {
      size_t idx = static_cast<size_t>(rng.UniformInt(0, kTimers - 1));
      int band = static_cast<int>(rng.UniformInt(0, 2));
      TimeNs when = band == 0   ? 1 + rng.UniformInt(0, UsToNs(60))
                    : band == 1 ? UsToNs(70) + rng.UniformInt(0, MsToNs(4))
                                : MsToNs(5) + rng.UniformInt(0, MsToNs(200));
      draws.emplace_back(idx, when);
    }
    for (const auto& [idx, when] : draws) {
      s2.Arm(ids_s[idx], when);
    }
    for (const auto& [idx, when] : draws) {
      batch_b.emplace_back(ids_b[idx], when);
    }
    b2.ArmBatch(batch_b);
    EXPECT_EQ(s2.ArmedCount(), b2.ArmedCount());

    DrainWheel(s2, MsToNs(300));
    DrainWheel(b2, MsToNs(300));
    EXPECT_EQ(ts, tb) << "round " << round;
    EXPECT_EQ(s2.fired_count(), b2.fired_count());
    EXPECT_EQ(s2.ArmedCount(), 0u);
  }
}

}  // namespace
}  // namespace vsched
