#include "src/base/perf_counters.h"

#include <thread>

#include <gtest/gtest.h>

namespace vsched {
namespace {

TEST(PerfCountersTest, CurrentIsNeverNull) { EXPECT_NE(PerfCounters::Current(), nullptr); }

TEST(PerfCountersTest, ScopeInstallsAndRestores) {
  PerfCounters* before = PerfCounters::Current();
  PerfCounters mine;
  {
    PerfCounters::Scope scope(&mine);
    EXPECT_EQ(PerfCounters::Current(), &mine);
    ++PerfCounters::Current()->events_executed;
  }
  EXPECT_EQ(PerfCounters::Current(), before);
  EXPECT_EQ(mine.events_executed, 1u);
}

TEST(PerfCountersTest, ScopesNest) {
  PerfCounters outer;
  PerfCounters inner;
  PerfCounters::Scope outer_scope(&outer);
  {
    PerfCounters::Scope inner_scope(&inner);
    ++PerfCounters::Current()->rq_picks;
  }
  ++PerfCounters::Current()->rq_picks;
  EXPECT_EQ(inner.rq_picks, 1u);
  EXPECT_EQ(outer.rq_picks, 1u);
}

TEST(PerfCountersTest, ThreadsHaveIndependentSinks) {
  PerfCounters mine;
  PerfCounters::Scope scope(&mine);
  PerfCounters theirs;
  std::thread t([&] {
    // A fresh thread starts on its own default sink, not this thread's scope.
    EXPECT_NE(PerfCounters::Current(), &mine);
    PerfCounters::Scope inner(&theirs);
    ++PerfCounters::Current()->events_scheduled;
  });
  t.join();
  EXPECT_EQ(theirs.events_scheduled, 1u);
  EXPECT_EQ(mine.events_scheduled, 0u);
}

TEST(PerfCountersTest, ResetClearsAllTallies) {
  PerfCounters c;
  c.events_executed = 5;
  c.rq_enqueues = 7;
  c.callback_heap_allocs = 3;
  c.Reset();
  EXPECT_EQ(c.events_executed, 0u);
  EXPECT_EQ(c.rq_enqueues, 0u);
  EXPECT_EQ(c.callback_heap_allocs, 0u);
}

// The sharded fleet folds per-cell tallies into the run's sink this way; the
// elision counters must sum like every other tally.
TEST(PerfCountersTest, MergeFromSumsElisionTallies) {
  PerfCounters total;
  total.ticks_elided = 2;
  total.probe_samples_elided = 5;
  PerfCounters cell;
  cell.ticks_elided = 3;
  cell.probe_samples_elided = 7;
  cell.timer_fires = 11;
  total.MergeFrom(cell);
  EXPECT_EQ(total.ticks_elided, 5u);
  EXPECT_EQ(total.probe_samples_elided, 12u);
  EXPECT_EQ(total.timer_fires, 11u);
}

}  // namespace
}  // namespace vsched
