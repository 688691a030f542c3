// The event-driven PairProbe's contract beyond its results (which
// pair_probe_pin_test.cc pins): it matches the polling oracle while firing
// far fewer samples, its --audit invariant holds and catches a misplaced
// sample timer, and no vCPU watcher outlives either side of the pair.
#include <memory>

#include <gtest/gtest.h>

#include "src/base/audit.h"
#include "src/base/perf_counters.h"
#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/host/stressor.h"
#include "src/probe/pair_probe.h"
#include "src/sim/simulation.h"
#include "tests/guest/test_behaviors.h"

namespace vsched {

// Backdoor for the audit tests (PairProbe declares it a friend).
struct PairProbeTestAccess {
  static TimerId SampleTimer(const PairProbe& probe) { return probe.sample_timer_; }
};

namespace {

TopologySpec TwoSocketSmt() {
  TopologySpec spec;
  spec.sockets = 2;
  spec.cores_per_socket = 4;
  spec.threads_per_core = 2;
  return spec;
}

VmSpec PairSpec(HwThreadId a, HwThreadId b, bool tickless = true) {
  VmSpec spec = MakeSimpleVmSpec("vm", 2);
  spec.vcpus[0].tid = a;
  spec.vcpus[1].tid = b;
  spec.mutable_guest_params().tickless = tickless;
  return spec;
}

struct Outcome {
  PairProbeResult result;
  PerfCounters counters;
};

// A contended pair: host stressors time-share both threads and guest hogs
// compete for the vCPUs, so the probe passes through all three states.
Outcome ContendedProbe(bool tickless) {
  Outcome out;
  PerfCounters::Scope scope(&out.counters);
  Simulation sim(301);
  HostMachine machine(&sim, TwoSocketSmt());
  Vm vm(&sim, &machine, PairSpec(2, 9, tickless));
  Stressor s0(&sim, "s0", 4096.0);
  Stressor s1(&sim, "s1", 2048.0);
  s0.Start(&machine, 2);
  s1.StartDutyCycle(&machine, 9, UsToNs(900), UsToNs(600));
  HogBehavior h0;
  HogBehavior h1;
  Task* t0 = vm.kernel().CreateTask("h0", TaskPolicy::kNormal, &h0, CpuMask::Single(0));
  Task* t1 = vm.kernel().CreateTask("h1", TaskPolicy::kNormal, &h1, CpuMask::Single(1));
  vm.kernel().StartTask(t0);
  vm.kernel().StartTask(t1);
  sim.RunFor(MsToNs(7));
  bool done = false;
  PairProbe probe(&vm.kernel(), 0, 1, PairProbeConfig{}, [&](const PairProbeResult& r) {
    out.result = r;
    done = true;
  });
  probe.Start();
  sim.RunFor(SecToNs(5));
  EXPECT_TRUE(done);
  return out;
}

TEST(PairProbeEventsTest, MatchesThePollingOracleWithFewerFirings) {
  Outcome polled = ContendedProbe(/*tickless=*/false);
  Outcome driven = ContendedProbe(/*tickless=*/true);
  EXPECT_EQ(polled.result.latency_ns, driven.result.latency_ns);
  EXPECT_EQ(polled.result.transfers, driven.result.transfers);
  EXPECT_EQ(polled.result.duration, driven.result.duration);
  EXPECT_EQ(polled.result.extensions, driven.result.extensions);
  EXPECT_EQ(polled.result.confidence, driven.result.confidence);
  EXPECT_EQ(polled.counters.probe_samples_elided, 0u);
  EXPECT_GT(driven.counters.probe_samples_elided, 0u);
  EXPECT_LT(driven.counters.timer_fires, polled.counters.timer_fires);
}

// A stacked pair never co-runs and one of its probers always spins, so the
// only real samples are the four timeout crossings (15000, 30000, 60000 and
// 120000 attempts at 10 per sample); the other 11996 grid points are elided.
TEST(PairProbeEventsTest, StackedPairFiresOnlyAtTimeouts) {
  PerfCounters counters;
  PerfCounters::Scope scope(&counters);
  Simulation sim(302);
  HostMachine machine(&sim, TwoSocketSmt());
  Vm vm(&sim, &machine, PairSpec(0, 0));
  PairProbeResult result;
  PairProbe probe(&vm.kernel(), 0, 1, PairProbeConfig{},
                  [&](const PairProbeResult& r) { result = r; });
  probe.Start();
  sim.RunFor(SecToNs(1));
  ASSERT_TRUE(probe.done());
  EXPECT_EQ(result.extensions, 3);
  const uint64_t samples = static_cast<uint64_t>(result.duration / UsToNs(10));
  EXPECT_EQ(samples, 12000u);
  EXPECT_EQ(counters.probe_samples_elided, samples - 4);
}

int g_violations = 0;
void CountViolation(const char*, int, const char*, const char*) { ++g_violations; }

TEST(PairProbeEventsTest, AuditInvariantHoldsThroughAContendedProbe) {
  audit::ScopedEnable enable;
  audit::ScopedHandler handler(&CountViolation);
  g_violations = 0;
  Outcome out = ContendedProbe(/*tickless=*/true);
  EXPECT_GT(out.result.transfers, 0.0);
  EXPECT_EQ(g_violations, 0);
}

TEST(PairProbeEventsTest, AuditCatchesAMisplacedSampleTimer) {
  Simulation sim(303);
  HostMachine machine(&sim, TwoSocketSmt());
  Vm vm(&sim, &machine, PairSpec(0, 0));  // stacked: one prober at a time
  PairProbe probe(&vm.kernel(), 0, 1, PairProbeConfig{}, [](const PairProbeResult&) {});
  probe.Start();
  sim.RunFor(MsToNs(3));
  audit::ScopedEnable enable;
  audit::ScopedHandler handler(&CountViolation);
  g_violations = 0;
  probe.AuditVerify();
  EXPECT_EQ(g_violations, 0);
  // One prober spins, so the timer belongs on the timeout grid point; move
  // it one grid point later.
  const TimerId timer = PairProbeTestAccess::SampleTimer(probe);
  ASSERT_TRUE(sim.TimerArmed(timer));
  sim.ArmTimerAt(timer, sim.wheel().ArmedAt(timer) + PairProbeConfig{}.sample_quantum);
  probe.AuditVerify();
  EXPECT_EQ(g_violations, 1);
  sim.CancelTimer(timer);
  probe.AuditVerify();
  EXPECT_EQ(g_violations, 2);
}

// A finished probe unregisters from both vCPUs; one destroyed mid-probe
// unregisters in its destructor. Either way later vCPU state changes (more
// scheduling, then the VM's teardown) never reach the dead probe — ASan
// builds turn any dangling watcher into a use-after-free report.
TEST(PairProbeEventsTest, ProbeDestroyedWhileVcpusLiveLeavesNoWatcher) {
  Simulation sim(304);
  HostMachine machine(&sim, TwoSocketSmt());
  auto vm = std::make_unique<Vm>(&sim, &machine, PairSpec(0, 0));
  GuestKernel& kernel = vm->kernel();

  auto finished = std::make_unique<PairProbe>(&kernel, 0, 1, PairProbeConfig{},
                                              [](const PairProbeResult&) {});
  finished->Start();
  EXPECT_EQ(kernel.vcpu(0).watcher_count(), 1u);
  EXPECT_EQ(kernel.vcpu(1).watcher_count(), 1u);
  sim.RunFor(SecToNs(1));
  ASSERT_TRUE(finished->CanDestroy());
  EXPECT_EQ(kernel.vcpu(0).watcher_count(), 0u);
  finished.reset();
  HogBehavior h0;
  HogBehavior h1;
  Task* t0 = kernel.CreateTask("h0", TaskPolicy::kNormal, &h0, CpuMask::Single(0));
  Task* t1 = kernel.CreateTask("h1", TaskPolicy::kNormal, &h1, CpuMask::Single(1));
  kernel.StartTask(t0);
  kernel.StartTask(t1);
  sim.RunFor(MsToNs(50));

  auto midway = std::make_unique<PairProbe>(&kernel, 0, 1, PairProbeConfig{},
                                            [](const PairProbeResult&) {});
  midway->Start();
  sim.RunFor(MsToNs(5));
  ASSERT_FALSE(midway->done());
  midway.reset();  // the owner's order on fleet departure: vSched, then VM
  EXPECT_EQ(kernel.vcpu(0).watcher_count(), 0u);
  EXPECT_EQ(kernel.vcpu(1).watcher_count(), 0u);
  vm.reset();
  sim.RunFor(MsToNs(5));
}

// The reverse order: the guest dies first. Its vCPUs detach the probe,
// which cancels its sample timer (it must never sample a dead kernel) and
// later destroys without touching the freed vCPUs.
TEST(PairProbeEventsTest, GuestTornDownMidProbeDetachesTheProbe) {
  Simulation sim(305);
  HostMachine machine(&sim, TwoSocketSmt());
  auto vm = std::make_unique<Vm>(&sim, &machine, PairSpec(0, 0));
  bool done = false;
  auto probe = std::make_unique<PairProbe>(&vm->kernel(), 0, 1, PairProbeConfig{},
                                           [&](const PairProbeResult&) { done = true; });
  probe->Start();
  sim.RunFor(MsToNs(5));
  ASSERT_FALSE(done);
  const TimerId timer = PairProbeTestAccess::SampleTimer(*probe);
  ASSERT_TRUE(sim.TimerArmed(timer));
  vm.reset();
  EXPECT_FALSE(sim.TimerArmed(timer));
  sim.RunFor(SecToNs(1));
  EXPECT_FALSE(done);
  probe.reset();
}

}  // namespace
}  // namespace vsched
