#include "src/sim/simulation.h"

#include <gtest/gtest.h>

namespace vsched {
namespace {

TEST(SimulationTest, RunForAdvancesClock) {
  Simulation sim(1);
  sim.RunFor(MsToNs(5));
  EXPECT_EQ(sim.now(), MsToNs(5));
  sim.RunFor(MsToNs(5));
  EXPECT_EQ(sim.now(), MsToNs(10));
}

TEST(SimulationTest, AfterSchedulesRelative) {
  Simulation sim(1);
  sim.RunFor(100);
  TimeNs fired_at = -1;
  sim.After(50, [&] { fired_at = sim.now(); });
  sim.RunFor(1000);
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulationTest, PeriodicFiresRepeatedly) {
  Simulation sim(1);
  int count = 0;
  sim.Every(MsToNs(1), [&] { ++count; });
  sim.RunFor(MsToNs(10));
  EXPECT_EQ(count, 10);
}

TEST(SimulationTest, CancelPeriodicStopsFiring) {
  Simulation sim(1);
  int count = 0;
  auto* handle = sim.Every(MsToNs(1), [&] { ++count; });
  sim.RunFor(MsToNs(5));
  sim.CancelPeriodic(handle);
  sim.RunFor(MsToNs(5));
  EXPECT_EQ(count, 5);
}

TEST(SimulationTest, CancelPeriodicFromInsideCallback) {
  Simulation sim(1);
  int count = 0;
  Simulation::PeriodicHandle* handle = nullptr;
  handle = sim.Every(MsToNs(1), [&] {
    if (++count == 3) {
      sim.CancelPeriodic(handle);
    }
  });
  sim.RunFor(MsToNs(10));
  EXPECT_EQ(count, 3);
}

// RunUntil(T) fires every timer due at T, so once it returns the band at T
// is closed: a periodic timer resumed at T afterwards (a fleet barrier, say)
// must go to its next grid point, not fire a second time at T.
TEST(SimulationTest, RunUntilClosesTheBandAtItsDeadline) {
  Simulation sim(1);
  int fires = 0;
  TimerId id = sim.CreateTimer([&] { ++fires; });
  sim.ArmTimerAt(id, MsToNs(1));
  EXPECT_TRUE(sim.TimerStillFiresAt(id, MsToNs(1)));
  sim.RunUntil(MsToNs(1));
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(sim.TimerStillFiresAt(id, MsToNs(1)));
  EXPECT_EQ(sim.NextGridPoint(0, MsToNs(1), id), MsToNs(2));
  EXPECT_TRUE(sim.TimerStillFiresAt(id, MsToNs(2)));  // later instants stay open
  sim.DestroyTimer(id);
}

TEST(SimulationTest, RunUntilClosesTheBandEvenWhenNothingFired) {
  Simulation sim(1);
  TimerId id = sim.CreateTimer([] {});
  sim.RunUntil(MsToNs(3));
  EXPECT_FALSE(sim.TimerStillFiresAt(id, MsToNs(3)));
  EXPECT_EQ(sim.NextGridPoint(0, MsToNs(1), id), MsToNs(4));
  sim.DestroyTimer(id);
}

TEST(SimulationTest, ForkRngDeterministic) {
  Simulation a(99);
  Simulation b(99);
  Rng ra = a.ForkRng();
  Rng rb = b.ForkRng();
  EXPECT_EQ(ra.NextU64(), rb.NextU64());
}

}  // namespace
}  // namespace vsched
