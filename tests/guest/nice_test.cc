// Nice-level scheduling: the CFS weight table shapes CPU shares.
#include <gtest/gtest.h>

#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/sim/simulation.h"
#include "tests/guest/test_behaviors.h"

namespace vsched {
namespace {

TopologySpec OneCore() {
  TopologySpec spec;
  spec.sockets = 1;
  spec.cores_per_socket = 1;
  spec.threads_per_core = 1;
  return spec;
}

struct NiceCase {
  int nice_a;
  int nice_b;
};

class NiceShares : public ::testing::TestWithParam<NiceCase> {};

TEST_P(NiceShares, SharesFollowWeightTable) {
  NiceCase c = GetParam();
  Simulation sim(21);
  HostMachine machine(&sim, OneCore());
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 1));
  HogBehavior ha;
  HogBehavior hb;
  Task* ta = vm.kernel().CreateTask("a", TaskPolicy::kNormal, &ha, CpuMask::Single(0));
  Task* tb = vm.kernel().CreateTask("b", TaskPolicy::kNormal, &hb, CpuMask::Single(0));
  ta->set_nice(c.nice_a);
  tb->set_nice(c.nice_b);
  vm.kernel().StartTask(ta);
  vm.kernel().StartTask(tb);
  sim.RunFor(SecToNs(2));
  double wa = NiceToWeight(c.nice_a);
  double wb = NiceToWeight(c.nice_b);
  double expected = wa / (wa + wb);
  double ra = static_cast<double>(ta->total_exec_ns());
  double rb = static_cast<double>(tb->total_exec_ns());
  EXPECT_NEAR(ra / (ra + rb), expected, 0.05)
      << "nice " << c.nice_a << " vs " << c.nice_b;
}

INSTANTIATE_TEST_SUITE_P(Pairs, NiceShares,
                         ::testing::Values(NiceCase{0, 0}, NiceCase{-5, 0}, NiceCase{0, 5},
                                           NiceCase{-10, 10}, NiceCase{-1, 1}));

TEST(NiceLevelTest, WeightTableAndFairness) {
  EXPECT_DOUBLE_EQ(NiceToWeight(0), 1024.0);
  EXPECT_DOUBLE_EQ(NiceToWeight(-20), 88761.0);
  EXPECT_DOUBLE_EQ(NiceToWeight(19), 15.0);
  // Each nice step ≈ 1.25x.
  EXPECT_NEAR(NiceToWeight(-1) / NiceToWeight(0), 1.25, 0.01);
  EXPECT_NEAR(NiceToWeight(0) / NiceToWeight(1), 1.25, 0.01);
}

TEST(NiceTest, HighNiceStillRunsEventually) {
  Simulation sim(22);
  HostMachine machine(&sim, OneCore());
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 1));
  HogBehavior important;
  HogBehavior background;
  Task* ti = vm.kernel().CreateTask("imp", TaskPolicy::kNormal, &important, CpuMask::Single(0));
  Task* tbg = vm.kernel().CreateTask("bg", TaskPolicy::kNormal, &background, CpuMask::Single(0));
  ti->set_nice(-20);
  tbg->set_nice(19);
  vm.kernel().StartTask(ti);
  vm.kernel().StartTask(tbg);
  sim.RunFor(SecToNs(2));
  // weight 15 vs 88761: bg gets ~0.017% but is never fully starved.
  EXPECT_GT(tbg->total_exec_ns(), 0);
  EXPECT_GT(ti->total_exec_ns(), 100 * tbg->total_exec_ns());
}

TEST(NiceDeathTest, RejectsOutOfRangeNice) {
  Simulation sim(23);
  HostMachine machine(&sim, OneCore());
  Vm vm(&sim, &machine, MakeSimpleVmSpec("vm", 1));
  HogBehavior h;
  Task* t = vm.kernel().CreateTask("t", TaskPolicy::kNormal, &h);
  EXPECT_DEATH(t->set_nice(20), "nice");
  EXPECT_DEATH(t->set_nice(-21), "nice");
}

}  // namespace
}  // namespace vsched
