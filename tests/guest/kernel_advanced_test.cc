// Misfit balance, bans/evacuation, RunOnVcpu, stacking, capacity estimates.
#include <vector>

#include <gtest/gtest.h>

#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/host/stressor.h"
#include "src/sim/simulation.h"
#include "tests/guest/test_behaviors.h"

namespace vsched {
namespace {

TopologySpec FlatSpec(int cores) {
  TopologySpec spec;
  spec.sockets = 1;
  spec.cores_per_socket = cores;
  spec.threads_per_core = 1;
  return spec;
}

class AdvancedFixture : public ::testing::Test {
 protected:
  AdvancedFixture() : sim_(11), machine_(&sim_, FlatSpec(8)) {}

  Simulation sim_;
  HostMachine machine_;
};

TEST_F(AdvancedFixture, MisfitTaskMigratesToHigherCapacityVcpu) {
  // vCPU 0 capped to 30%; vCPU 1 dedicated. With true capacities published
  // (as vcap would), the hog must move to vCPU 1.
  VmSpec spec = MakeSimpleVmSpec("vm", 2);
  spec.vcpus[0].bw_quota = MsToNs(3);
  spec.vcpus[0].bw_period = MsToNs(10);
  Vm vm(&sim_, &machine_, spec);
  vm.kernel().SetCapacityOverride(0, 0.3 * kCapacityScale);
  vm.kernel().SetCapacityOverride(1, kCapacityScale);
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog);
  // Force initial placement onto the weak vCPU.
  t->set_allowed(CpuMask::Single(0));
  vm.kernel().StartTask(t);
  sim_.RunFor(MsToNs(20));
  t->set_allowed(CpuMask::FirstN(2));
  sim_.RunFor(MsToNs(300));
  EXPECT_EQ(t->cpu(), 1);
  EXPECT_GT(vm.kernel().counters().active_migrations.value(), 0u);
  // Near-full progress after the move.
  EXPECT_GT(t->total_exec_ns(), MsToNs(250));
}

TEST_F(AdvancedFixture, BansEvacuateQueuedAndRunningTasks) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 4));
  std::vector<std::unique_ptr<HogBehavior>> behaviors;
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    behaviors.push_back(std::make_unique<HogBehavior>());
    Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, behaviors.back().get());
    vm.kernel().StartTask(t);
    tasks.push_back(t);
  }
  sim_.RunFor(MsToNs(50));
  vm.kernel().SetBans(/*straggler=*/CpuMask::Single(3), /*stack=*/CpuMask::Single(2));
  sim_.RunFor(MsToNs(100));
  for (Task* t : tasks) {
    EXPECT_NE(t->cpu(), 2) << "stack-banned vCPU still hosts a task";
    EXPECT_NE(t->cpu(), 3) << "straggler-banned vCPU still hosts a normal task";
  }
  EXPECT_TRUE(vm.kernel().vcpu(2).IsIdle());
  EXPECT_TRUE(vm.kernel().vcpu(3).IsIdle());
}

TEST_F(AdvancedFixture, StragglerBanStillAllowsSchedIdle) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 2));
  vm.kernel().SetBans(CpuMask::Single(1), CpuMask::None());
  HogBehavior idle_hog;
  Task* t = vm.kernel().CreateTask("be", TaskPolicy::kIdle, &idle_hog, CpuMask::Single(1));
  vm.kernel().StartTask(t);
  sim_.RunFor(MsToNs(100));
  EXPECT_EQ(t->cpu(), 1);
  EXPECT_GT(t->total_exec_ns(), MsToNs(90));
}

TEST_F(AdvancedFixture, ExemptTaskIgnoresStackBan) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 2));
  vm.kernel().SetBans(CpuMask::None(), CpuMask::Single(1));
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("probe", TaskPolicy::kNormal, &hog, CpuMask::Single(1));
  t->set_exempt_all_bans(true);
  vm.kernel().StartTask(t);
  sim_.RunFor(MsToNs(50));
  EXPECT_EQ(t->cpu(), 1);
  EXPECT_GT(t->total_exec_ns(), MsToNs(45));
}

TEST_F(AdvancedFixture, RunOnVcpuImmediateWhenActive) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 1));
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  sim_.RunFor(MsToNs(5));
  bool ran = false;
  TimeNs at = -1;
  vm.kernel().RunOnVcpu(0, [&] {
    ran = true;
    at = sim_.now();
  });
  TimeNs before = sim_.now();
  sim_.RunFor(MsToNs(1));
  EXPECT_TRUE(ran);
  EXPECT_LE(at - before, UsToNs(10));
}

TEST_F(AdvancedFixture, RunOnVcpuDeferredUntilActive) {
  // vCPU inactive due to a host RT stressor; the IPI function waits for it.
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 1));
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  sim_.RunFor(MsToNs(5));
  Stressor rt(&sim_, "rt", 1024.0, /*rt=*/true);
  rt.Start(&machine_, 0);
  sim_.RunFor(MsToNs(5));
  ASSERT_FALSE(vm.kernel().vcpu(0).active());
  bool ran = false;
  vm.kernel().RunOnVcpu(0, [&] { ran = true; });
  sim_.RunFor(MsToNs(5));
  EXPECT_FALSE(ran);
  rt.Stop();
  sim_.RunFor(MsToNs(5));
  EXPECT_TRUE(ran);
}

TEST_F(AdvancedFixture, RunOnVcpuKickPreWakesHaltedVcpu) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 1));
  sim_.RunFor(MsToNs(5));
  ASSERT_FALSE(vm.thread(0).wants_to_run());
  bool ran = false;
  vm.kernel().RunOnVcpu(0, [&] { ran = true; }, /*kick=*/true);
  sim_.RunFor(MsToNs(1));
  EXPECT_TRUE(ran);
  // After delivering the IPI with nothing to run, the vCPU halts again.
  sim_.RunFor(MsToNs(1));
  EXPECT_FALSE(vm.thread(0).wants_to_run());
}

TEST_F(AdvancedFixture, RunOnVcpuDeliversInPostOrder) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 2));
  HogBehavior hog0;
  HogBehavior hog1;
  vm.kernel().StartTask(
      vm.kernel().CreateTask("hog0", TaskPolicy::kNormal, &hog0, CpuMask::Single(0)));
  vm.kernel().StartTask(
      vm.kernel().CreateTask("hog1", TaskPolicy::kNormal, &hog1, CpuMask::Single(1)));
  sim_.RunFor(MsToNs(5));
  ASSERT_TRUE(vm.kernel().vcpu(0).active());
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    vm.kernel().RunOnVcpu(0, [&order, i] { order.push_back(i); });
    // A call to another vCPU in between has its own delivery.
    vm.kernel().RunOnVcpu(1, [&order, i] { order.push_back(10 + i); });
  }
  // A call made from a delivered call lands behind the ones already posted.
  vm.kernel().RunOnVcpu(0, [&] {
    order.push_back(3);
    vm.kernel().RunOnVcpu(0, [&order] { order.push_back(4); });
  });
  sim_.RunFor(MsToNs(1));
  EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 11, 2, 12, 3, 4}));
}

TEST_F(AdvancedFixture, StackedVcpusMakeHalfProgress) {
  VmSpec spec = MakeSimpleVmSpec("vm", 2);
  spec.vcpus[1].tid = 0;  // Stack both vCPUs on hardware thread 0.
  Vm vm(&sim_, &machine_, spec);
  HogBehavior a;
  HogBehavior b;
  Task* ta = vm.kernel().CreateTask("a", TaskPolicy::kNormal, &a, CpuMask::Single(0));
  Task* tb = vm.kernel().CreateTask("b", TaskPolicy::kNormal, &b, CpuMask::Single(1));
  vm.kernel().StartTask(ta);
  vm.kernel().StartTask(tb);
  sim_.RunFor(SecToNs(1));
  EXPECT_NEAR(static_cast<double>(ta->total_exec_ns()), MsToNs(500),
              static_cast<double>(MsToNs(50)));
  EXPECT_NEAR(static_cast<double>(tb->total_exec_ns()), MsToNs(500),
              static_cast<double>(MsToNs(50)));
}

TEST_F(AdvancedFixture, CfsCapacityTracksStealWhileBusy) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 1));
  Stressor competitor(&sim_, "comp");
  competitor.Start(&machine_, 0);
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  sim_.RunFor(SecToNs(2));
  // ~50% steal → estimate near 512.
  EXPECT_NEAR(vm.kernel().CfsCapacityOf(0), 512.0, 120.0);
  competitor.Stop();
}

TEST_F(AdvancedFixture, CfsCapacityDriftsUpWhileIdle) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 1));
  Stressor competitor(&sim_, "comp");
  competitor.Start(&machine_, 0);
  HogBehavior hog;
  FixedWorkBehavior finite(WorkAtCapacity(kCapacityScale, MsToNs(500)));
  Task* t = vm.kernel().CreateTask("t", TaskPolicy::kNormal, &finite, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  // 500 ms of work at a ~50% share finishes around t=1 s; sample while busy.
  sim_.RunFor(MsToNs(900));
  ASSERT_FALSE(finite.done());
  double busy_estimate = vm.kernel().CfsCapacityOf(0);
  EXPECT_LT(busy_estimate, 700.0);
  sim_.RunFor(SecToNs(3));  // Task done; idle: steal becomes invisible.
  ASSERT_TRUE(finite.done());
  EXPECT_GT(vm.kernel().CfsCapacityOf(0), 950.0);
  competitor.Stop();
}

TEST_F(AdvancedFixture, CapacityOverrideWinsOverEstimate) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 1));
  vm.kernel().SetCapacityOverride(0, 333.0);
  EXPECT_DOUBLE_EQ(vm.kernel().CfsCapacityOf(0), 333.0);
  vm.kernel().ClearCapacityOverrides();
  EXPECT_GT(vm.kernel().CfsCapacityOf(0), 900.0);
}

TEST_F(AdvancedFixture, RebuildSchedDomainsChangesPlacementDomain) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 4));
  GuestTopology topo;
  CpuMask left = CpuMask(0b0011);
  CpuMask right = CpuMask(0b1100);
  for (int i = 0; i < 4; ++i) {
    topo.smt_mask.push_back(CpuMask::Single(i));
    topo.llc_mask.push_back(i < 2 ? left : right);
    topo.stack_mask.push_back(CpuMask::Single(i));
  }
  vm.kernel().RebuildSchedDomains(topo);
  EXPECT_EQ(vm.kernel().topology().llc_mask[0], left);
  EXPECT_EQ(vm.kernel().topology().llc_mask[3], right);
}

TEST_F(AdvancedFixture, MigrateRunningTaskFailsWhenSourceInactive) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 2));
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  sim_.RunFor(MsToNs(5));
  Stressor rt(&sim_, "rt", 1024.0, /*rt=*/true);
  rt.Start(&machine_, 0);
  sim_.RunFor(MsToNs(2));
  ASSERT_FALSE(vm.kernel().vcpu(0).active());
  t->set_allowed(CpuMask::FirstN(2));
  EXPECT_FALSE(vm.kernel().MigrateRunningTask(t, 0, 1));
  rt.Stop();
}

TEST_F(AdvancedFixture, CommPenaltyScalesWithDistance) {
  TopologySpec spec;
  spec.sockets = 2;
  spec.cores_per_socket = 2;
  spec.threads_per_core = 2;
  HostMachine machine2(&sim_, spec);
  VmSpec vmspec = MakeSimpleVmSpec("vm", 4);
  vmspec.vcpus[0].tid = 0;
  vmspec.vcpus[1].tid = 1;  // SMT sibling of 0
  vmspec.vcpus[2].tid = 2;  // other core, same socket
  vmspec.vcpus[3].tid = 4;  // other socket
  Vm vm(&sim_, &machine2, vmspec);
  Work smt = vm.kernel().CommWorkPenalty(0, 1, 10);
  Work sock = vm.kernel().CommWorkPenalty(0, 2, 10);
  Work cross = vm.kernel().CommWorkPenalty(0, 3, 10);
  EXPECT_LT(smt, sock);
  EXPECT_LT(sock, cross);
  EXPECT_TRUE(vm.kernel().CrossSocketPhysical(0, 3));
  EXPECT_FALSE(vm.kernel().CrossSocketPhysical(0, 2));
}

TEST_F(AdvancedFixture, SelectHookOverridesPlacement) {
  struct AlwaysThree : WakePlacement {
    int SelectVcpu(Task*, int, int) override { return 3; }
  } placement;
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 4));
  vm.kernel().set_placement(&placement);
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog);
  vm.kernel().StartTask(t);
  EXPECT_EQ(t->cpu(), 3);
}

TEST_F(AdvancedFixture, TickHookFiresOnActiveVcpus) {
  struct CountingListener : TickListener {
    void OnTick(GuestVcpu*, TimeNs) override { ++calls; }
    int calls = 0;
  } listener;
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 2));
  vm.kernel().AddTickListener(&listener);
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  sim_.RunFor(MsToNs(100));
  // Only vCPU 0 is busy; vCPU 1 is halted and receives no ticks.
  EXPECT_GE(listener.calls, 95);
  EXPECT_LE(listener.calls, 105);
  // Removal stops delivery.
  vm.kernel().RemoveTickListener(&listener);
  const int calls = listener.calls;
  sim_.RunFor(MsToNs(20));
  EXPECT_EQ(listener.calls, calls);
}

}  // namespace
}  // namespace vsched
