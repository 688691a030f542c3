#include "src/runner/runner.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/runner/result_sink.h"
#include "src/runner/spec.h"

namespace vsched {
namespace {

// A cheap but real sweep: Figure 2 protocol, one app, short windows.
ExperimentSpec SmallSweep() {
  ExperimentSpec sweep = VcpuLatencySweep(/*base_seed=*/0, /*warmup=*/MsToNs(20),
                                          /*measure=*/MsToNs(100));
  sweep.Filter("img-dnn");
  return sweep;
}

std::string Serialize(const std::vector<RunResult>& results) {
  std::string out;
  for (const RunResult& result : results) {
    out += ResultRowJson(result) + "\n";
  }
  return out;
}

TEST(SpecTest, OverallSweepIsTheFullCrossProduct) {
  ExperimentSpec sweep = OverallSweep(ExperimentFamily::kOverallRcvm);
  EXPECT_EQ(sweep.runs.size(), 31u * 3u);
  // Ids are unique and filterable.
  std::vector<std::string> ids;
  for (const RunSpec& run : sweep.runs) {
    ids.push_back(run.Id());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());

  ExperimentSpec filtered = OverallSweep(ExperimentFamily::kOverallRcvm);
  filtered.Filter("/vsched");
  EXPECT_EQ(filtered.runs.size(), 31u);
}

TEST(SpecTest, OptionsForConfigRejectsUnknownNames) {
  EXPECT_NO_THROW(OptionsForConfig("cfs"));
  EXPECT_NO_THROW(OptionsForConfig("enhanced"));
  EXPECT_NO_THROW(OptionsForConfig("vsched"));
  EXPECT_THROW(OptionsForConfig("bogus"), std::invalid_argument);
}

TEST(RunnerTest, ResultsComeBackInSpecOrder) {
  ExperimentSpec sweep = SmallSweep();
  ASSERT_EQ(sweep.runs.size(), 8u);
  RunnerOptions options;
  options.jobs = 4;
  std::vector<RunResult> results = Runner(options).Run(sweep);
  ASSERT_EQ(results.size(), sweep.runs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, static_cast<int>(i));
    EXPECT_EQ(results[i].spec.Id(), sweep.runs[i].Id());
    EXPECT_TRUE(results[i].ok) << results[i].error;
    EXPECT_GT(results[i].metrics.Get("completed"), 0);
  }
}

TEST(RunnerTest, ParallelOutputIsByteIdenticalToSerial) {
  ExperimentSpec sweep = SmallSweep();
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions sharded;
  sharded.jobs = 4;
  std::string reference = Serialize(Runner(serial).Run(sweep));
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(Serialize(Runner(sharded).Run(sweep)), reference);
}

TEST(RunnerTest, FailingRunIsRetriedThenReported) {
  ExperimentSpec sweep;
  sweep.name = "bad";
  RunSpec bad;
  bad.family = ExperimentFamily::kOverallRcvm;
  bad.workload = "no-such-workload";
  bad.config = "cfs";
  sweep.runs.push_back(bad);
  RunnerOptions options;
  options.jobs = 2;
  options.max_attempts = 3;
  std::vector<RunResult> results = Runner(options).Run(sweep);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].attempts, 3);
  EXPECT_NE(results[0].error.find("unknown workload"), std::string::npos);
}

TEST(RunnerTest, ProgressHookFiresOncePerRun) {
  ExperimentSpec sweep = SmallSweep();
  int fired = 0;
  RunnerOptions options;
  options.jobs = 4;
  options.on_run_done = [&fired](const RunResult&) { ++fired; };
  Runner(options).Run(sweep);
  EXPECT_EQ(fired, static_cast<int>(sweep.runs.size()));
}

// Every simulator callback of a vSched run fits EventCallback's inline
// buffer, including the ivh handshake steps that travel through RunOnVcpu.
// The windows are long enough for vcap to publish and ivh to start
// harvesting (about 2,000 handshake steps).
TEST(RunnerTest, VschedRunAllocatesNoHeapCallbacks) {
  ExperimentSpec sweep = OverallSweep(ExperimentFamily::kOverallHpvm, /*seed=*/0,
                                      /*warmup=*/MsToNs(500), /*measure=*/MsToNs(1500));
  sweep.Filter("fig19_hpvm/blackscholes/vsched");
  ASSERT_EQ(sweep.runs.size(), 1u);
  RunnerOptions options;
  options.jobs = 1;
  RunResult result = Runner::RunOne(sweep.runs[0], 0, options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.counters.events_executed, 0u);
  EXPECT_EQ(result.counters.callback_heap_allocs, 0u);
}

}  // namespace
}  // namespace vsched
