// Pins PairProbe's observable behaviour bit for bit.
//
// Every PairProbeResult field below was recorded from the polling probe (one
// sample timer firing every sample_quantum for the probe's whole life). The
// event-driven probe only arms its timer where a sample can change
// something, so each case must reproduce those values exactly: same
// latency, same transfer sum, same duration, same extension count, same
// confidence. A mismatch prints the actual result as a ready-to-paste
// initializer.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/host/stressor.h"
#include "src/probe/pair_probe.h"
#include "src/probe/vtop.h"
#include "src/sim/simulation.h"
#include "tests/guest/test_behaviors.h"

namespace vsched {
namespace {

TopologySpec TwoSocketSmt() {
  TopologySpec spec;
  spec.sockets = 2;
  spec.cores_per_socket = 4;
  spec.threads_per_core = 2;
  return spec;
}

struct Pinned {
  int cpu_a;
  int cpu_b;
  double latency_ns;
  double transfers;
  TimeNs duration;
  int extensions;
  double confidence;
};

std::string Describe(const PairProbeResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{%d, %d, %a, %a, %" PRId64 ", %d, %a}", r.cpu_a, r.cpu_b,
                r.latency_ns, r.transfers, static_cast<int64_t>(r.duration), r.extensions,
                r.confidence);
  return buf;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void ExpectPinned(const PairProbeResult& r, const Pinned& want) {
  SCOPED_TRACE("actual: " + Describe(r));
  EXPECT_EQ(r.cpu_a, want.cpu_a);
  EXPECT_EQ(r.cpu_b, want.cpu_b);
  EXPECT_TRUE(SameBits(r.latency_ns, want.latency_ns)) << r.latency_ns;
  EXPECT_TRUE(SameBits(r.transfers, want.transfers)) << r.transfers;
  EXPECT_EQ(r.duration, want.duration);
  EXPECT_EQ(r.extensions, want.extensions);
  EXPECT_TRUE(SameBits(r.confidence, want.confidence)) << r.confidence;
}

// Runs one probe to completion from the current simulated time.
PairProbeResult ProbeOnce(Vm& vm, Simulation& sim, int a, int b, PairProbeConfig config = {}) {
  PairProbeResult result;
  bool done = false;
  PairProbe probe(&vm.kernel(), a, b, config, [&](const PairProbeResult& r) {
    result = r;
    done = true;
  });
  probe.Start();
  sim.RunFor(SecToNs(20));
  EXPECT_TRUE(done);
  EXPECT_TRUE(probe.CanDestroy());
  return result;
}

VmSpec PairSpec(HwThreadId a, HwThreadId b) {
  VmSpec spec = MakeSimpleVmSpec("vm", 2);
  spec.vcpus[0].tid = a;
  spec.vcpus[1].tid = b;
  return spec;
}

TEST(PairProbePinTest, SmtPair) {
  Simulation sim(101);
  HostMachine machine(&sim, TwoSocketSmt());
  Vm vm(&sim, &machine, PairSpec(0, 1));
  ExpectPinned(ProbeOnce(vm, sim, 0, 1),
               {0, 1, 0x1.6afa1869730b5p+2, 0x1.a0aaaaaaaaaabp+10, 10000, 0, 0x1p+0});
}

TEST(PairProbePinTest, StackedPair) {
  Simulation sim(102);
  HostMachine machine(&sim, TwoSocketSmt());
  Vm vm(&sim, &machine, PairSpec(0, 0));
  ExpectPinned(ProbeOnce(vm, sim, 0, 1),
               {0, 1, kInfiniteLatency, 0x0p+0, 120000000, 3, 0x1p+0});
}

TEST(PairProbePinTest, CrossSocketPair) {
  Simulation sim(103);
  HostMachine machine(&sim, TwoSocketSmt());
  Vm vm(&sim, &machine, PairSpec(0, 8));
  ExpectPinned(ProbeOnce(vm, sim, 1, 0),
               {1, 0, 0x1.aa92c97abc301p+6, 0x1.0bdb6db6db6dcp+9, 60000, 0, 0x1p+0});
}

// Host stressors time-share both hardware threads and guest hogs compete
// for the vCPUs, so the probers are preempted (at host and guest level)
// over and over mid-probe.
TEST(PairProbePinTest, ContendedPairPreemptedMidProbe) {
  Simulation sim(104);
  HostMachine machine(&sim, TwoSocketSmt());
  Vm vm(&sim, &machine, PairSpec(2, 4));
  Stressor s0(&sim, "s0", 4096.0);
  Stressor s1(&sim, "s1", 2048.0);
  s0.Start(&machine, 2);
  s1.StartDutyCycle(&machine, 4, UsToNs(700), UsToNs(300));
  HogBehavior h0;
  HogBehavior h1;
  Task* t0 = vm.kernel().CreateTask("h0", TaskPolicy::kNormal, &h0, CpuMask::Single(0));
  Task* t1 = vm.kernel().CreateTask("h1", TaskPolicy::kNormal, &h1, CpuMask::Single(1));
  vm.kernel().StartTask(t0);
  vm.kernel().StartTask(t1);
  sim.RunFor(MsToNs(15) + UsToNs(3));
  ExpectPinned(ProbeOnce(vm, sim, 0, 1),
               {0, 1, 0x1.73d08ce7bc64p+5, 0x1.388p+9, 2920000, 0, 0x1p+0});
}

// An RT host stressor holds the second vCPU's hardware thread for 40 ms at a
// time: the first prober spins alone through two timeouts, extends twice,
// and only completes once the stressor's off phase lets both probers run.
TEST(PairProbePinTest, TimeoutExtensionPath) {
  Simulation sim(105);
  HostMachine machine(&sim, TwoSocketSmt());
  Vm vm(&sim, &machine, PairSpec(0, 2));
  Stressor rt(&sim, "rt", 1024.0, /*rt=*/true);
  rt.StartDutyCycle(&machine, 2, MsToNs(40), MsToNs(2));
  sim.RunFor(MsToNs(5) + UsToNs(7));
  PairProbeResult r = ProbeOnce(vm, sim, 0, 1);
  EXPECT_GT(r.extensions, 0);
  ExpectPinned(r, {0, 1, 0x1.88c42593db4fep+5, 0x1.388p+9, 35020000, 2, 0x1p+0});
}

// The robust median estimator under probe-chaos: samples are dropped and
// corrupted through the kPairLatency injection point.
TEST(PairProbePinTest, RobustUnderProbeChaos) {
  Simulation sim(106);
  HostMachine machine(&sim, TwoSocketSmt());
  Vm vm(&sim, &machine, PairSpec(0, 3));
  FaultPlan plan;
  ASSERT_TRUE(LookupFaultPlan("probe-chaos", &plan));
  FaultInjector injector(&sim, &machine, &vm, plan);
  vm.kernel().set_fault_injector(&injector);
  injector.Start();
  Stressor s(&sim, "s");
  s.StartDutyCycle(&machine, 3, UsToNs(400), UsToNs(250));
  PairProbeConfig config;
  config.robust.enabled = true;
  PairProbeResult r = ProbeOnce(vm, sim, 0, 1, config);
  EXPECT_LT(r.confidence, 1.0);
  ExpectPinned(r,
               {0, 1, 0x1.84759d7e5b59dp+5, 0x1.388p+9, 450000, 0, 0x1.3333333333333p-1});
  vm.kernel().set_fault_injector(nullptr);
}

// A full vtop probe (concurrent pair probes sharing vCPUs) on the Fig 10(b)
// layout: the whole latency matrix and the completion time are pinned.
TEST(PairProbePinTest, FullVtopProbeMatrix) {
  Simulation sim(107);
  HostMachine machine(&sim, TwoSocketSmt());
  VmSpec spec = MakeSimpleVmSpec("vm", 8);
  const HwThreadId tids[8] = {0, 1, 2, 3, 8, 9, 10, 10};
  for (int i = 0; i < 8; ++i) {
    spec.vcpus[static_cast<size_t>(i)].tid = tids[i];
  }
  Vm vm(&sim, &machine, spec);
  Vtop vtop(&vm.kernel());
  TimeNs done_at = -1;
  vtop.RunFullProbe([&] { done_at = sim.now(); });
  sim.RunFor(SecToNs(10));
  ASSERT_GE(done_at, 0);
  uint64_t hash = 1469598103934665603ull;  // FNV-1a over the matrix bits
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      double v = vtop.MatrixAt(a, b);
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      hash = (hash ^ bits) * 1099511628211ull;
    }
  }
  EXPECT_EQ(hash, 617220884730243699ull);
  EXPECT_EQ(done_at, 120490000);
}

}  // namespace
}  // namespace vsched
