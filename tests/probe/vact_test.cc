#include "src/probe/vact.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/host/stressor.h"
#include "src/probe/vcap.h"
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

class VactFixture : public ::testing::Test {
 protected:
  VactFixture() : sim_(33), machine_(&sim_, FlatSpec(4)) {}

  Simulation sim_;
  HostMachine machine_;
};

TEST_F(VactFixture, DedicatedBusyVcpuHasNearZeroLatency) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 1));
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  Vact vact(&vm.kernel());
  vact.Start();
  sim_.RunFor(SecToNs(3));
  ASSERT_TRUE(vact.has_results());
  EXPECT_LT(vact.LatencyOf(0), static_cast<double>(UsToNs(100)));
}

TEST_F(VactFixture, BandwidthShapingYieldsExpectedLatency) {
  // 5 ms on / 5 ms off: average inactive period ≈ 5 ms.
  VmSpec spec = MakeSimpleVmSpec("vm", 1);
  spec.vcpus[0].bw_quota = MsToNs(5);
  spec.vcpus[0].bw_period = MsToNs(10);
  Vm vm(&sim_, &machine_, spec);
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  Vact vact(&vm.kernel());
  vact.Start();
  sim_.RunFor(SecToNs(4));
  EXPECT_NEAR(vact.LatencyOf(0), static_cast<double>(MsToNs(5)),
              static_cast<double>(MsToNs(1)));
  EXPECT_NEAR(vact.ActivePeriodOf(0), static_cast<double>(MsToNs(5)),
              static_cast<double>(MsToNs(1)));
  // ~100 preemptions per 1 s window.
  EXPECT_NEAR(vact.LastWindowPreemptions(0), 100, 10);
}

TEST_F(VactFixture, LatencyScalesWithInactivePeriod) {
  VmSpec spec = MakeSimpleVmSpec("vm", 2);
  spec.vcpus[0].bw_quota = MsToNs(4);
  spec.vcpus[0].bw_period = MsToNs(8);  // 4 ms inactive periods
  spec.vcpus[1].bw_quota = MsToNs(8);
  spec.vcpus[1].bw_period = MsToNs(16);  // 8 ms inactive periods
  Vm vm(&sim_, &machine_, spec);
  HogBehavior hog_a;
  HogBehavior hog_b;
  Task* a = vm.kernel().CreateTask("a", TaskPolicy::kNormal, &hog_a, CpuMask::Single(0));
  Task* b = vm.kernel().CreateTask("b", TaskPolicy::kNormal, &hog_b, CpuMask::Single(1));
  vm.kernel().StartTask(a);
  vm.kernel().StartTask(b);
  Vact vact(&vm.kernel());
  vact.Start();
  sim_.RunFor(SecToNs(4));
  double lat0 = vact.LatencyOf(0);
  double lat1 = vact.LatencyOf(1);
  EXPECT_NEAR(lat1 / lat0, 2.0, 0.4);
}

TEST_F(VactFixture, QueryStateSeesActiveVcpu) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 1));
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  Vact vact(&vm.kernel());
  vact.Start();
  sim_.RunFor(MsToNs(100));
  VcpuStateView view = vact.QueryState(0);
  EXPECT_FALSE(view.inactive);
}

TEST_F(VactFixture, QueryStateDetectsPreemptedVcpu) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 1));
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  Vact vact(&vm.kernel());
  vact.Start();
  sim_.RunFor(MsToNs(100));
  Stressor rt(&sim_, "rt", 1024.0, /*rt=*/true);
  rt.Start(&machine_, 0);
  sim_.RunFor(MsToNs(20));
  VcpuStateView view = vact.QueryState(0);
  EXPECT_TRUE(view.inactive);
  // The heartbeat froze when the RT stressor took over.
  EXPECT_LE(view.since, sim_.now() - MsToNs(15));
  rt.Stop();
  sim_.RunFor(MsToNs(20));
  EXPECT_FALSE(vact.QueryState(0).inactive);
}

TEST_F(VactFixture, StateChangeTrackedViaStealJumps) {
  VmSpec spec = MakeSimpleVmSpec("vm", 1);
  spec.vcpus[0].bw_quota = MsToNs(10);
  spec.vcpus[0].bw_period = MsToNs(20);
  Vm vm(&sim_, &machine_, spec);
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  Vact vact(&vm.kernel());
  vact.Start();
  sim_.RunFor(SecToNs(2) + MsToNs(3));
  VcpuStateView view = vact.QueryState(0);
  if (!view.inactive) {
    // "Since" must be recent: within the current 10 ms active stint.
    EXPECT_GE(view.since, sim_.now() - MsToNs(12));
  }
}

TEST_F(VactFixture, MedianLatencyAcrossVcpus) {
  VmSpec spec = MakeSimpleVmSpec("vm", 3);
  spec.vcpus[2].bw_quota = MsToNs(4);
  spec.vcpus[2].bw_period = MsToNs(8);
  Vm vm(&sim_, &machine_, spec);
  std::vector<std::unique_ptr<HogBehavior>> hogs;
  for (int i = 0; i < 3; ++i) {
    hogs.push_back(std::make_unique<HogBehavior>());
    Task* t = vm.kernel().CreateTask("h", TaskPolicy::kNormal, hogs.back().get(),
                                     CpuMask::Single(i));
    vm.kernel().StartTask(t);
  }
  Vact vact(&vm.kernel());
  vact.Start();
  sim_.RunFor(SecToNs(4));
  // Two dedicated vCPUs (latency ~0) and one shaped: median ~0.
  EXPECT_LT(vact.MedianLatency(), static_cast<double>(MsToNs(1)));
  EXPECT_GT(vact.LatencyOf(2), static_cast<double>(MsToNs(2)));
}

// MedianLatency() is cached between windows; every window end must refresh
// it. Two shaped vCPUs keep their EMAs moving window after window, and the
// cached median must equal a recompute from LatencyOf bit for bit.
TEST_F(VactFixture, CachedMedianLatencyTracksEveryWindow) {
  VmSpec spec = MakeSimpleVmSpec("vm", 3);
  spec.vcpus[1].bw_quota = MsToNs(4);
  spec.vcpus[1].bw_period = MsToNs(8);
  spec.vcpus[2].bw_quota = MsToNs(2);
  spec.vcpus[2].bw_period = MsToNs(8);
  Vm vm(&sim_, &machine_, spec);
  std::vector<std::unique_ptr<HogBehavior>> hogs;
  for (int i = 0; i < 3; ++i) {
    hogs.push_back(std::make_unique<HogBehavior>());
    vm.kernel().StartTask(vm.kernel().CreateTask("h", TaskPolicy::kNormal, hogs.back().get(),
                                                 CpuMask::Single(i)));
  }
  Vact vact(&vm.kernel());
  vact.Start();
  EXPECT_EQ(vact.MedianLatency(), 0.0);  // no estimate yet
  std::vector<double> medians;
  for (int step = 0; step < 20; ++step) {
    sim_.RunFor(MsToNs(250));
    if (!vact.has_results()) {
      continue;
    }
    std::vector<double> lat = {vact.LatencyOf(0), vact.LatencyOf(1), vact.LatencyOf(2)};
    std::sort(lat.begin(), lat.end());
    EXPECT_EQ(vact.MedianLatency(), lat[1]) << "step " << step;
    medians.push_back(vact.MedianLatency());
  }
  ASSERT_FALSE(medians.empty());
  EXPECT_NE(medians.front(), medians.back());  // the median really moved
}

}  // namespace
}  // namespace vsched
