#include "src/probe/vcap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

class VcapFixture : public ::testing::Test {
 protected:
  VcapFixture() : sim_(21), machine_(&sim_, FlatSpec(8)) {}

  Simulation sim_;
  HostMachine machine_;
};

TEST_F(VcapFixture, DedicatedVcpuProbesFullCapacity) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 2));
  Vcap vcap(&vm.kernel());
  vcap.Start();
  sim_.RunFor(SecToNs(3));
  ASSERT_TRUE(vcap.has_results());
  EXPECT_NEAR(vcap.CapacityOf(0), kCapacityScale, 40.0);
  EXPECT_NEAR(vcap.CapacityOf(1), kCapacityScale, 40.0);
}

TEST_F(VcapFixture, BandwidthCapReflectedInCapacity) {
  VmSpec spec = MakeSimpleVmSpec("vm", 2);
  spec.vcpus[0].bw_quota = MsToNs(5);  // 50% share
  spec.vcpus[0].bw_period = MsToNs(10);
  Vm vm(&sim_, &machine_, spec);
  Vcap vcap(&vm.kernel());
  vcap.Start();
  sim_.RunFor(SecToNs(6));
  EXPECT_NEAR(vcap.CapacityOf(0), 512.0, 80.0);
  EXPECT_NEAR(vcap.CapacityOf(1), kCapacityScale, 40.0);
}

TEST_F(VcapFixture, FrequencyAsymmetryNeedsHeavyPhase) {
  // Core frequency halved: invisible to steal time, only the heavy phase's
  // work-rate measurement can see it.
  machine_.SetCoreFreq(1, 0.5);
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 2));
  Vcap vcap(&vm.kernel());
  vcap.Start();
  sim_.RunFor(SecToNs(3));
  EXPECT_NEAR(vcap.CapacityOf(0), 1024.0, 60.0);
  EXPECT_NEAR(vcap.CapacityOf(1), 512.0, 60.0);
  EXPECT_NEAR(vcap.last_sample(1).core_capacity, 512.0, 60.0);
}

TEST_F(VcapFixture, HostCompetitionHalvesCapacity) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 1));
  Stressor competitor(&sim_, "comp");
  competitor.Start(&machine_, 0);
  // A busy workload so the vCPU contends all the time.
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  Vcap vcap(&vm.kernel());
  vcap.Start();
  sim_.RunFor(SecToNs(8));
  EXPECT_NEAR(vcap.CapacityOf(0), 512.0, 100.0);
  EXPECT_GT(vcap.last_sample(0).steal_fraction, 0.3);
  competitor.Stop();
}

TEST_F(VcapFixture, EmaSmoothsCapacityStep) {
  VmSpec spec = MakeSimpleVmSpec("vm", 1);
  Vm vm(&sim_, &machine_, spec);
  Vcap vcap(&vm.kernel());
  vcap.Start();
  sim_.RunFor(SecToNs(3));
  double before = vcap.CapacityOf(0);
  EXPECT_NEAR(before, 1024.0, 40.0);
  // Step the capacity down to ~25%.
  vm.SetVcpuBandwidth(0, MsToNs(5), MsToNs(20));
  sim_.RunFor(SecToNs(1) + MsToNs(200));
  double after_one = vcap.CapacityOf(0);
  // One window in: the EMA has moved but not converged.
  EXPECT_LT(after_one, before - 50.0);
  EXPECT_GT(after_one, 300.0);
  sim_.RunFor(SecToNs(8));
  EXPECT_NEAR(vcap.CapacityOf(0), 256.0, 90.0);
}

TEST_F(VcapFixture, LightProbingBarelyDisturbsWorkload) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 1));
  HogBehavior hog;
  Task* t = vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &hog, CpuMask::Single(0));
  vm.kernel().StartTask(t);
  Vcap vcap(&vm.kernel());
  vcap.Start();
  sim_.RunFor(SecToNs(10));
  // Light windows are SCHED_IDLE; only heavy windows (2 of 10s here) share.
  // Expect > 85% of the CPU went to the workload.
  double share = static_cast<double>(t->total_exec_ns()) / static_cast<double>(sim_.now());
  EXPECT_GT(share, 0.85);
}

TEST_F(VcapFixture, MedianCapacity) {
  VmSpec spec = MakeSimpleVmSpec("vm", 4);
  spec.vcpus[0].bw_quota = MsToNs(2);
  spec.vcpus[0].bw_period = MsToNs(10);
  Vm vm(&sim_, &machine_, spec);
  Vcap vcap(&vm.kernel());
  vcap.Start();
  sim_.RunFor(SecToNs(3));
  // Three full-capacity vCPUs, one at 20% → median near full.
  EXPECT_GT(vcap.MedianCapacity(), 900.0);
}

// MedianCapacity() is cached between windows; every window end and every
// skip-mask change must refresh it. Reference: the median recomputed from
// CapacityOf over the probed vCPUs, compared bit for bit.
TEST_F(VcapFixture, CachedMedianCapacityTracksWindowsAndSkipMask) {
  VmSpec spec = MakeSimpleVmSpec("vm", 3);
  spec.vcpus[1].bw_quota = MsToNs(6);
  spec.vcpus[1].bw_period = MsToNs(10);
  spec.vcpus[2].bw_quota = MsToNs(3);
  spec.vcpus[2].bw_period = MsToNs(10);
  Vm vm(&sim_, &machine_, spec);
  Vcap vcap(&vm.kernel());
  CpuMask skip;
  auto reference = [&] {
    std::vector<double> caps;
    for (int i = 0; i < 3; ++i) {
      if (!skip.Test(i)) {
        caps.push_back(vcap.CapacityOf(i));
      }
    }
    std::sort(caps.begin(), caps.end());
    return caps[(caps.size() - 1) / 2];
  };
  EXPECT_EQ(vcap.MedianCapacity(), kCapacityScale);  // no estimate yet
  vcap.Start();
  for (int step = 0; step < 24; ++step) {
    sim_.RunFor(MsToNs(250));
    if (step == 13) {  // no window ended since the last query
      skip = CpuMask::Single(1);
      vcap.SetSkipMask(skip);
    }
    ASSERT_TRUE(vcap.has_results());  // the first window ends at 100 ms
    EXPECT_EQ(vcap.MedianCapacity(), reference()) << "step " << step;
  }
  EXPECT_LT(vcap.MedianCapacity(), 900.0);  // the two shaped vCPUs remain
}

TEST_F(VcapFixture, SkipMaskSuppressesProbing) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 2));
  Vcap vcap(&vm.kernel());
  vcap.SetSkipMask(CpuMask::Single(1));
  vcap.Start();
  sim_.RunFor(SecToNs(3));
  // Skipped vCPU was never touched: no prober execution there.
  EXPECT_EQ(vm.kernel().vcpu(1).busy_ns(), 0);
  EXPECT_GT(vm.kernel().vcpu(0).busy_ns(), 0);
}

TEST_F(VcapFixture, StopHaltsSampling) {
  Vm vm(&sim_, &machine_, MakeSimpleVmSpec("vm", 1));
  Vcap vcap(&vm.kernel());
  vcap.Start();
  sim_.RunFor(SecToNs(2));
  int windows = vcap.windows_completed();
  vcap.Stop();
  sim_.RunFor(SecToNs(2));
  EXPECT_EQ(vcap.windows_completed(), windows);
}

}  // namespace
}  // namespace vsched
