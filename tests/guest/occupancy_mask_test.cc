// Tests of the guest kernel's occupancy masks (idle, placement-idle,
// queued-normal, queued-idle) and the cached asym-capacity flag: the masks
// must equal what the vCPUs say after every kind of state change, and the
// mask-driven scans must keep the wrapping scan order, including on a
// 64-vCPU guest where the shift and FirstN(64) edges live.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/sim/simulation.h"
#include "tests/guest/test_behaviors.h"

namespace vsched {

// Reaches the private scan entry points so a test can pin the rotor.
struct GuestKernelTestAccess {
  static void SetScanRotor(GuestKernel& k, int rotor) { k.scan_rotor_ = rotor; }
  static int ScanForIdle(GuestKernel& k, CpuMask domain, bool want_idle_core, int scan_from) {
    return k.ScanForIdle(domain, want_idle_core, scan_from);
  }
};

namespace {

TopologySpec Host(int cores, int threads_per_core = 1) {
  TopologySpec spec;
  spec.sockets = 1;
  spec.cores_per_socket = cores;
  spec.threads_per_core = threads_per_core;
  return spec;
}

// The masks re-derived from the vCPUs' public state.
void ExpectMasksMatchVcpus(const GuestKernel& k) {
  CpuMask idle;
  CpuMask placement_idle;
  CpuMask queued_normal;
  CpuMask queued_idle;
  for (int c = 0; c < k.num_vcpus(); ++c) {
    const GuestVcpu& v = k.vcpu(c);
    if (v.IsIdle()) {
      idle.Set(c);
    }
    bool idle_current = v.current() == nullptr || v.current()->policy() == TaskPolicy::kIdle;
    if (idle_current && v.rq().normal_count() == 0) {
      placement_idle.Set(c);
    }
    if (v.rq().normal_count() > 0) {
      queued_normal.Set(c);
    }
    if (v.rq().idle_count() > 0) {
      queued_idle.Set(c);
    }
  }
  EXPECT_EQ(k.idle_mask().bits(), idle.bits());
  EXPECT_EQ(k.placement_idle_mask().bits(), placement_idle.bits());
  EXPECT_EQ(k.queued_normal_mask().bits(), queued_normal.bits());
  EXPECT_EQ(k.queued_idle_mask().bits(), queued_idle.bits());
}

// A 64-vCPU guest on 64 hardware threads with a pinned hog on every vCPU in
// `busy`.
class SixtyFourVcpuGuest : public ::testing::Test {
 protected:
  void Occupy(CpuMask busy) {
    for (int c : busy) {
      hogs_.push_back(std::make_unique<HogBehavior>());
      Task* t = vm_.kernel().CreateTask("hog", TaskPolicy::kNormal, hogs_.back().get(),
                                        CpuMask::Single(c));
      vm_.kernel().StartTask(t);
    }
    sim_.RunFor(MsToNs(5));
  }

  Task* StartUnpinned() {
    hogs_.push_back(std::make_unique<HogBehavior>());
    Task* t = vm_.kernel().CreateTask("probe", TaskPolicy::kNormal, hogs_.back().get());
    vm_.kernel().StartTask(t);
    return t;
  }

  Simulation sim_{11};
  HostMachine machine_{&sim_, Host(32, 2)};
  Vm vm_{&sim_, &machine_, MakeSimpleVmSpec("vm", 64)};
  std::vector<std::unique_ptr<HogBehavior>> hogs_;
};

TEST_F(SixtyFourVcpuGuest, TopVcpuAsTheOnlyIdleOneIsFound) {
  Occupy(CpuMask::FirstN(63));
  GuestKernel& k = vm_.kernel();
  ASSERT_EQ(k.idle_mask().bits(), CpuMask::Single(63).bits());
  EXPECT_EQ(k.placement_idle_mask().bits(), CpuMask::Single(63).bits());
  ExpectMasksMatchVcpus(k);
  for (int from : {0, 1, 31, 62, 63}) {
    EXPECT_EQ(GuestKernelTestAccess::ScanForIdle(k, CpuMask::FirstN(64), false, from), 63);
    EXPECT_EQ(GuestKernelTestAccess::ScanForIdle(k, CpuMask::FirstN(64), true, from), 63);
    EXPECT_EQ(GuestKernelTestAccess::ScanForIdle(k, CpuMask::FirstN(63), false, from), -1);
  }
  Task* t = StartUnpinned();
  EXPECT_EQ(t->cpu(), 63);
  EXPECT_TRUE(k.idle_mask().Empty());
  ExpectMasksMatchVcpus(k);
}

TEST_F(SixtyFourVcpuGuest, ScanFromTheTopVcpuWrapsToZero) {
  CpuMask busy = CpuMask::FirstN(63);
  busy.Clear(0);
  Occupy(busy);
  GuestKernel& k = vm_.kernel();
  ASSERT_EQ(k.idle_mask().bits(), (CpuMask::Single(0) | CpuMask::Single(63)).bits());
  CpuMask all = CpuMask::FirstN(64);
  EXPECT_EQ(GuestKernelTestAccess::ScanForIdle(k, all, false, 63), 63);
  EXPECT_EQ(GuestKernelTestAccess::ScanForIdle(k, all, false, 0), 0);
  EXPECT_EQ(GuestKernelTestAccess::ScanForIdle(k, all, false, 1), 63);
  EXPECT_EQ(GuestKernelTestAccess::ScanForIdle(k, all & ~CpuMask::Single(63), false, 63), 0);

  // The wake path starts its scan at the rotor: 63 first, then wrap to 0.
  GuestKernelTestAccess::SetScanRotor(k, 63);
  EXPECT_EQ(StartUnpinned()->cpu(), 63);
  GuestKernelTestAccess::SetScanRotor(k, 63);
  EXPECT_EQ(StartUnpinned()->cpu(), 0);
  ExpectMasksMatchVcpus(k);
}

TEST_F(SixtyFourVcpuGuest, IdleCoreNeedsEveryIdleSibling) {
  // SMT pairs (0,1), (2,3), ... (62,63); vCPUs 0 and 63 idle, siblings busy.
  GuestTopology topo;
  for (int i = 0; i < 64; ++i) {
    topo.smt_mask.push_back(CpuMask::Single(i) | CpuMask::Single(i ^ 1));
    topo.llc_mask.push_back(CpuMask::FirstN(64));
    topo.stack_mask.push_back(CpuMask::Single(i));
  }
  vm_.kernel().RebuildSchedDomains(topo);
  CpuMask busy = CpuMask::FirstN(63);
  busy.Clear(0);
  Occupy(busy);
  GuestKernel& k = vm_.kernel();
  EXPECT_EQ(GuestKernelTestAccess::ScanForIdle(k, CpuMask::FirstN(64), true, 63), -1);
  EXPECT_EQ(GuestKernelTestAccess::ScanForIdle(k, CpuMask::FirstN(64), false, 63), 63);
}

TEST(OccupancyMaskTest, PreemptAndRequeueKeepQueuedNormalSet) {
  Simulation sim(1);
  HostMachine machine(&sim, Host(1));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 1));
  GuestKernel& k = vm.kernel();
  HogBehavior a;
  HogBehavior b;
  k.StartTask(k.CreateTask("a", TaskPolicy::kNormal, &a));
  k.StartTask(k.CreateTask("b", TaskPolicy::kNormal, &b));
  for (int step = 0; step < 40; ++step) {
    sim.RunFor(UsToNs(500));
    ExpectMasksMatchVcpus(k);
  }
  EXPECT_GT(k.counters().context_switches.value(), 4u);  // preempted and requeued
  EXPECT_TRUE(k.idle_mask().Empty());
  EXPECT_TRUE(k.placement_idle_mask().Empty());
  EXPECT_EQ(k.queued_normal_mask().bits(), CpuMask::Single(0).bits());
  EXPECT_TRUE(k.queued_idle_mask().Empty());
}

TEST(OccupancyMaskTest, QueuedMigrationMovesTheQueuedBit) {
  Simulation sim(2);
  HostMachine machine(&sim, Host(2));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 2));
  GuestKernel& k = vm.kernel();
  HogBehavior a;
  HogBehavior b;
  Task* ta = k.CreateTask("a", TaskPolicy::kNormal, &a, CpuMask::Single(0));
  Task* tb = k.CreateTask("b", TaskPolicy::kNormal, &b, CpuMask::Single(0));
  k.StartTask(ta);
  k.StartTask(tb);
  sim.RunFor(MsToNs(1));
  ASSERT_EQ(k.queued_normal_mask().bits(), CpuMask::Single(0).bits());
  Task* queued = k.vcpu(0).current() == ta ? tb : ta;
  queued->set_allowed(CpuMask::FirstN(2));
  ASSERT_TRUE(k.MigrateQueuedTask(queued, 1));
  EXPECT_FALSE(k.queued_normal_mask().Test(0));
  EXPECT_FALSE(k.idle_mask().Test(1));
  EXPECT_FALSE(k.placement_idle_mask().Test(1));
  ExpectMasksMatchVcpus(k);
  sim.RunFor(MsToNs(1));
  EXPECT_TRUE(k.queued_normal_mask().Empty());
  ExpectMasksMatchVcpus(k);
}

TEST(OccupancyMaskTest, RunningMigrationFreesTheSource) {
  Simulation sim(3);
  HostMachine machine(&sim, Host(2));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 2));
  GuestKernel& k = vm.kernel();
  HogBehavior hog;
  Task* t = k.CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  k.StartTask(t);
  sim.RunFor(MsToNs(1));
  ASSERT_EQ(k.idle_mask().bits(), CpuMask::Single(1).bits());
  t->set_allowed(CpuMask::FirstN(2));
  ASSERT_TRUE(k.MigrateRunningTask(t, 0, 1));
  EXPECT_TRUE(k.idle_mask().Test(0));
  EXPECT_TRUE(k.placement_idle_mask().Test(0));
  EXPECT_FALSE(k.idle_mask().Test(1));
  ExpectMasksMatchVcpus(k);
  sim.RunFor(MsToNs(1));
  EXPECT_EQ(k.vcpu(1).current(), t);
  ExpectMasksMatchVcpus(k);
}

TEST(OccupancyMaskTest, SchedIdleOnlyQueueIsPlacementIdle) {
  Simulation sim(4);
  HostMachine machine(&sim, Host(1));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 1));
  GuestKernel& k = vm.kernel();
  HogBehavior be1;
  HogBehavior be2;
  k.StartTask(k.CreateTask("be1", TaskPolicy::kIdle, &be1));
  k.StartTask(k.CreateTask("be2", TaskPolicy::kIdle, &be2));
  sim.RunFor(MsToNs(1));
  EXPECT_TRUE(k.idle_mask().Empty());
  EXPECT_EQ(k.placement_idle_mask().bits(), CpuMask::Single(0).bits());
  EXPECT_TRUE(k.queued_normal_mask().Empty());
  EXPECT_EQ(k.queued_idle_mask().bits(), CpuMask::Single(0).bits());
  ExpectMasksMatchVcpus(k);

  // A normal task preempts the best-effort one: no longer placement-idle.
  HogBehavior normal;
  Task* n = k.CreateTask("n", TaskPolicy::kNormal, &normal);
  k.StartTask(n);
  sim.RunFor(MsToNs(1));
  EXPECT_EQ(k.vcpu(0).current(), n);
  EXPECT_TRUE(k.placement_idle_mask().Empty());
  EXPECT_EQ(k.queued_idle_mask().bits(), CpuMask::Single(0).bits());
  ExpectMasksMatchVcpus(k);
}

TEST(OccupancyMaskTest, MasksTrackAMixedWorkload) {
  Simulation sim(5);
  HostMachine machine(&sim, Host(4, 2));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 8));
  GuestKernel& k = vm.kernel();
  std::vector<std::unique_ptr<TaskBehavior>> behaviors;
  for (int i = 0; i < 12; ++i) {
    behaviors.push_back(std::make_unique<PeriodicBehavior>(
        WorkAtCapacity(kCapacityScale, UsToNs(300 + 100 * i)), UsToNs(200 + 150 * i)));
    k.StartTask(k.CreateTask("p", i % 3 == 0 ? TaskPolicy::kIdle : TaskPolicy::kNormal,
                             behaviors.back().get()));
  }
  for (int step = 0; step < 200; ++step) {
    sim.RunFor(UsToNs(150));
    ExpectMasksMatchVcpus(k);
  }
}

TEST(OccupancyMaskTest, AsymCapacityKnownFollowsOverrides) {
  Simulation sim(6);
  HostMachine machine(&sim, Host(4));
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 4));
  GuestKernel& k = vm.kernel();
  EXPECT_FALSE(k.AsymCapacityKnown());
  k.SetCapacityOverride(0, 512.0);
  EXPECT_FALSE(k.AsymCapacityKnown());  // one override: nothing to compare
  k.SetCapacityOverride(1, 1024.0);
  EXPECT_TRUE(k.AsymCapacityKnown());
  k.ClearCapacityOverrides();
  EXPECT_FALSE(k.AsymCapacityKnown());
  k.SetCapacityOverrides({1024.0, 1024.0, 1000.0, 1024.0});
  EXPECT_FALSE(k.AsymCapacityKnown());  // within asym_capacity_ratio
  k.SetCapacityOverrides({1024.0, 512.0, -1.0, -1.0});
  EXPECT_TRUE(k.AsymCapacityKnown());
  k.SetCapacityOverride(1, 1024.0);
  EXPECT_FALSE(k.AsymCapacityKnown());
}

}  // namespace
}  // namespace vsched
