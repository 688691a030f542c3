// Tests for the VSCHED_AUDIT runtime invariant auditor (src/base/audit.h).
//
// Strategy: install a recording violation handler (so the test binary
// survives), deliberately corrupt an EventQueue / Runqueue through the
// AuditTestAccess friend backdoor, and assert the audit layer notices — both
// when AuditVerify is called directly and when it fires from the real
// mutation hooks. Clean structures must stay violation-free, and a disabled
// auditor must never report.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/base/audit.h"
#include "src/base/time.h"
#include "src/guest/runqueue.h"
#include "src/guest/task.h"
#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"
#include "src/sim/timer_wheel.h"
#include "tests/guest/test_behaviors.h"

namespace vsched {

// Deliberate-corruption backdoor; EventQueue and Runqueue declare this
// struct a friend precisely so these tests can break invariants that the
// public API makes unreachable.
struct AuditTestAccess {
  // Swaps the heap root with the last slot, repairing the heap_pos
  // back-pointers so that *only* the ordering invariant is violated.
  static void BreakHeapOrder(EventQueue& q) {
    ASSERT_GE(q.heap_.size(), 2u);
    size_t last = q.heap_.size() - 1;
    std::swap(q.heap_[0], q.heap_[last]);
    q.NodeAt(q.heap_[0].node).heap_pos = 0;
    q.NodeAt(q.heap_[last].node).heap_pos = static_cast<int32_t>(last);
  }

  static void BreakBackPointer(EventQueue& q) {
    ASSERT_FALSE(q.heap_.empty());
    q.NodeAt(q.heap_[0].node).heap_pos = 1 << 20;
  }

  // Pushes a live node onto the free list: the slot is now both pending and
  // recyclable — the double-use bug generation tags exist to prevent.
  static void CorruptFreeList(EventQueue& q) {
    ASSERT_FALSE(q.heap_.empty());
    q.free_.push_back(q.heap_[0].node);
  }

  static void SkewLoad(Runqueue& rq, double delta) { rq.load_ += delta; }

  static void BreakSortOrder(Runqueue& rq) {
    ASSERT_GE(rq.normal_.size(), 2u);
    std::swap(rq.normal_.front(), rq.normal_.back());
  }

  // ---- TimerWheel (timer band) backdoors ----

  // Shifts the farthest armed timer's deadline by 2 ms: its heap key no
  // longer matches the deadline. (Farthest, so near-term dispatch keeps
  // working and run-loop hooks still get a chance to notice.)
  static void BreakWheelKeyDeadline(TimerWheel& w) {
    ASSERT_FALSE(w.heap_.empty()) << "no armed timer to corrupt";
    TimerWheel::Key worst = w.heap_[0];
    for (TimerWheel::Key key : w.heap_) {
      worst = std::max(worst, key);
    }
    w.At(TimerWheel::KeyId(worst)).deadline += MsToNs(2);
  }

  // Marks a heap-resident timer idle in the position index: IsArmed and
  // Cancel would miss a timer that still fires.
  static void BreakWheelPositionIndex(TimerWheel& w) {
    ASSERT_FALSE(w.heap_.empty()) << "no armed timer to corrupt";
    w.pos_[TimerWheel::KeyId(w.heap_[0])] = TimerWheel::kNoPos;
  }

  // Breaks an armed timer's heap-position back-pointer.
  static void BreakWheelBackPointer(TimerWheel& w) {
    ASSERT_FALSE(w.heap_.empty()) << "no armed timer to corrupt";
    w.pos_[TimerWheel::KeyId(w.heap_[0])] += 7;
  }

  // Drops an entry from the heap (and the position index) without fixing
  // armed_count_: the "timer lost" failure mode.
  static void LoseWheelTimer(TimerWheel& w) {
    ASSERT_FALSE(w.heap_.empty()) << "no armed timer to corrupt";
    w.pos_[TimerWheel::KeyId(w.heap_.back())] = TimerWheel::kNoPos;
    w.heap_.pop_back();
  }

  // Pretends dispatch already passed an armed timer's deadline (monotone
  // dispatch violation).
  static void BreakWheelMonotoneDispatch(TimerWheel& w) {
    ASSERT_FALSE(w.heap_.empty()) << "no armed timer to corrupt";
    w.fired_any_ = true;
    w.last_fire_when_ = TimerWheel::KeyDeadline(w.heap_[0]) + 1;
  }

  // Swaps the heap root with the last entry, repairing both back-pointers so
  // that only the order invariant is violated (requires >= 2 entries).
  static void BreakWheelHeapOrder(TimerWheel& w) {
    ASSERT_GE(w.heap_.size(), 2u);
    const uint32_t last = static_cast<uint32_t>(w.heap_.size() - 1);
    const TimerWheel::Key root = w.heap_[0];
    w.Place(0, w.heap_[last]);
    w.Place(last, root);
  }
};

namespace {

std::vector<std::string>& Violations() {
  static std::vector<std::string> v;
  return v;
}

void RecordViolation(const char* file, int line, const char* invariant, const char* detail) {
  (void)file;
  (void)line;
  Violations().push_back(detail != nullptr ? detail : invariant);
}

bool AnyViolationContains(const std::string& needle) {
  return std::any_of(Violations().begin(), Violations().end(), [&](const std::string& v) {
    return v.find(needle) != std::string::npos;
  });
}

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Violations().clear();
    audit::ResetViolationCount();
  }
  void TearDown() override { Violations().clear(); }

  audit::ScopedEnable enable_;
  audit::ScopedHandler handler_{&RecordViolation};

  // Runqueue task factory (tasks must outlive the queue operations).
  Task* Make(uint64_t id, double vruntime) {
    tasks_.push_back(std::make_unique<Task>(id, "t" + std::to_string(id), TaskPolicy::kNormal,
                                            &behavior_, CpuMask::FirstN(1)));
    TaskAccess::SetVruntime(tasks_.back().get(), vruntime);
    return tasks_.back().get();
  }

  HogBehavior behavior_;
  std::vector<std::unique_ptr<Task>> tasks_;
};

// Detaching the running entity picks its successor, and the successor can
// act on the same CpuSched at once: here a kicked vCPU delivers an IPI that
// wakes a task on its stacked sibling, an audited wake-up. The detached
// entity must already be out of the attached set by then. A VM migrating
// (or departing) while one of its vCPUs runs takes this path.
TEST_F(AuditTest, DetachingTheRunningEntityReportsNothing) {
  Simulation sim(1);
  TopologySpec spec;
  spec.sockets = 1;
  spec.cores_per_socket = 1;
  spec.threads_per_core = 1;
  HostMachine source(&sim, spec);
  HostMachine dest(&sim, spec);
  Vm vm(&sim, &source, MakeSimpleVmSpec("vm", 1));
  VmSpec stacked = MakeSimpleVmSpec("stacked", 2);
  stacked.vcpus[1].tid = 0;
  Vm neighbor(&sim, &source, stacked);
  vm.kernel().StartTask(
      vm.kernel().CreateTask("hog", TaskPolicy::kNormal, &behavior_, CpuMask::Single(0)));
  while (!vm.kernel().vcpu(0).active()) {
    sim.RunFor(UsToNs(100));
  }
  GuestKernel& k = neighbor.kernel();
  Task* sibling_task = k.CreateTask("late", TaskPolicy::kNormal, &behavior_, CpuMask::Single(1));
  bool delivered = false;
  k.RunOnVcpu(
      0,
      [&] {
        delivered = true;
        k.StartTask(sibling_task);
      },
      /*kick=*/true);
  ASSERT_FALSE(k.vcpu(0).active());  // queued behind the hog's vCPU
  vm.MigrateToMachine(&dest, {0});
  EXPECT_TRUE(delivered);
  EXPECT_EQ(audit::ViolationCount(), 0u);
}

TEST_F(AuditTest, CleanEventQueueChurnReportsNothing) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(q.ScheduleAt(i * 10, [] {}));
  }
  for (int i = 0; i < 50; i += 3) {
    q.Cancel(ids[static_cast<size_t>(i)]);
  }
  while (q.RunOne()) {
  }
  q.AuditVerify();
  EXPECT_EQ(audit::ViolationCount(), 0u);
}

TEST_F(AuditTest, HeapOrderCorruptionIsCaught) {
  EventQueue q;
  for (int i = 1; i <= 8; ++i) {
    q.ScheduleAt(i * 100, [] {});
  }
  AuditTestAccess::BreakHeapOrder(q);
  q.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("orders before its parent"));
}

TEST_F(AuditTest, HeapCorruptionFiresFromTheMutationHook) {
  EventQueue q;
  for (int i = 1; i <= 8; ++i) {
    q.ScheduleAt(i * 100, [] {});
  }
  AuditTestAccess::BreakHeapOrder(q);
  ASSERT_EQ(audit::ViolationCount(), 0u);
  // No direct AuditVerify call: the next mutation's built-in hook must fire.
  q.ScheduleAt(900, [] {});
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("orders before its parent"));
}

TEST_F(AuditTest, StaleBackPointerIsCaught) {
  EventQueue q;
  q.ScheduleAt(100, [] {});
  q.ScheduleAt(200, [] {});
  AuditTestAccess::BreakBackPointer(q);
  q.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("heap_pos disagrees"));
}

TEST_F(AuditTest, LiveNodeOnFreeListIsCaught) {
  EventQueue q;
  q.ScheduleAt(100, [] {});
  AuditTestAccess::CorruptFreeList(q);
  q.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("also live on the heap"));
}

TEST_F(AuditTest, CleanRunqueueChurnReportsNothing) {
  Runqueue rq;
  Task* a = Make(1, 10.0);
  Task* b = Make(2, 20.0);
  Task* c = Make(3, 5.0);
  rq.Enqueue(a);
  rq.Enqueue(b);
  rq.Enqueue(c);
  EXPECT_EQ(rq.Pick(), c);
  rq.Dequeue(b);
  rq.Dequeue(c);
  rq.Dequeue(a);
  EXPECT_EQ(audit::ViolationCount(), 0u);
}

TEST_F(AuditTest, RunqueueLoadDriftIsCaught) {
  Runqueue rq;
  rq.Enqueue(Make(1, 10.0));
  rq.Enqueue(Make(2, 20.0));
  AuditTestAccess::SkewLoad(rq, 1.0);
  rq.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("load diverged"));
}

TEST_F(AuditTest, RunqueueSortCorruptionFiresFromThePickHook) {
  Runqueue rq;
  rq.Enqueue(Make(1, 10.0));
  rq.Enqueue(Make(2, 20.0));
  rq.Enqueue(Make(3, 30.0));
  AuditTestAccess::BreakSortOrder(rq);
  ASSERT_EQ(audit::ViolationCount(), 0u);
  rq.Pick();  // the hook inside Pick must notice
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("out of (vruntime, id) order"));
}

TEST_F(AuditTest, CleanTimerWheelChurnReportsNothing) {
  TimerWheel w;
  std::vector<TimerId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(w.Register([] {}));
    w.Arm(ids.back(), (i + 1) * UsToNs(700));
  }
  for (int i = 0; i < 32; i += 3) {
    w.Cancel(ids[static_cast<size_t>(i)]);
  }
  for (;;) {
    TimeNs next = w.NextDeadlineAtMost(MsToNs(100));
    if (next == kTimeInfinity) {
      break;
    }
    w.RunOne(next);
  }
  w.AuditVerify();
  EXPECT_EQ(audit::ViolationCount(), 0u);
}

TEST_F(AuditTest, WheelBucketHashCorruptionIsCaught) {
  TimerWheel w;
  w.Arm(w.Register([] {}), MsToNs(5));
  AuditTestAccess::BreakWheelKeyDeadline(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("heap key disagrees with its timer's deadline"));
}

TEST_F(AuditTest, WheelOccupancyCorruptionIsCaught) {
  TimerWheel w;
  w.Arm(w.Register([] {}), MsToNs(5));
  AuditTestAccess::BreakWheelPositionIndex(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("position index marks idle"));
}

TEST_F(AuditTest, WheelBackPointerCorruptionIsCaught) {
  TimerWheel w;
  w.Arm(w.Register([] {}), MsToNs(5));
  AuditTestAccess::BreakWheelBackPointer(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("back-pointer disagrees"));
}

TEST_F(AuditTest, WheelLostTimerIsCaught) {
  TimerWheel w;
  w.Arm(w.Register([] {}), MsToNs(5));
  AuditTestAccess::LoseWheelTimer(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("armed count out of sync"));
}

TEST_F(AuditTest, WheelMonotoneDispatchViolationIsCaught) {
  TimerWheel w;
  w.Arm(w.Register([] {}), MsToNs(5));
  AuditTestAccess::BreakWheelMonotoneDispatch(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("precedes the last dispatch"));
}

TEST_F(AuditTest, WheelReadyOrderCorruptionIsCaught) {
  TimerWheel w;
  w.Arm(w.Register([] {}), MsToNs(2));
  w.Arm(w.Register([] {}), MsToNs(2) + 100);
  ASSERT_EQ(w.NextDeadlineAtMost(MsToNs(3)), MsToNs(2));
  AuditTestAccess::BreakWheelHeapOrder(w);
  w.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("heap order violated"));
}

TEST_F(AuditTest, WheelCorruptionFiresFromTheRunLoopHook) {
  Simulation sim(/*seed=*/7);
  int near_fires = 0;
  sim.Every(MsToNs(1), [&] { ++near_fires; });
  sim.Every(MsToNs(200), [] {});  // far periodic: the farthest heap entry
  sim.RunFor(MsToNs(1));
  ASSERT_EQ(audit::ViolationCount(), 0u);
  AuditTestAccess::BreakWheelKeyDeadline(sim.wheel());
  // No direct AuditVerify call: the run loop's post-dispatch hook must fire
  // on the next near-timer dispatch.
  sim.RunFor(MsToNs(2));
  EXPECT_GT(near_fires, 1);
  EXPECT_GT(audit::ViolationCount(), 0u);
  EXPECT_TRUE(AnyViolationContains("heap key disagrees with its timer's deadline"));
}

TEST_F(AuditTest, SimulationClockStaysMonotone) {
  Simulation sim(/*seed=*/42);
  int fired = 0;
  sim.After(MsToNs(1), [&] { ++fired; });
  sim.Every(MsToNs(2), [&] { ++fired; });
  sim.RunUntil(MsToNs(10));
  sim.RunFor(MsToNs(5));
  EXPECT_GT(fired, 0);
  EXPECT_EQ(audit::ViolationCount(), 0u);
}

TEST_F(AuditTest, DisabledAuditorNeverReports) {
  audit::SetEnabled(false);
  EventQueue q;
  for (int i = 1; i <= 4; ++i) {
    q.ScheduleAt(i * 100, [] {});
  }
  AuditTestAccess::BreakHeapOrder(q);
  q.ScheduleAt(900, [] {});  // hook is a no-op while disabled
  q.AuditVerify();           // explicit calls also gate every check
  EXPECT_EQ(audit::ViolationCount(), 0u);
}

TEST_F(AuditTest, ViolationCountAccumulatesAcrossReports) {
  EventQueue q;
  q.ScheduleAt(100, [] {});
  q.ScheduleAt(200, [] {});
  AuditTestAccess::BreakBackPointer(q);
  q.AuditVerify();
  uint64_t first = audit::ViolationCount();
  EXPECT_GT(first, 0u);
  q.AuditVerify();
  EXPECT_GT(audit::ViolationCount(), first);
}

}  // namespace
}  // namespace vsched
