// Guest-side vCPU: runqueue, currently-running task, and the execution
// engine that advances task work at the hardware thread's effective speed
// while the vCPU is active at the host.
//
// The execution engine is segment-based: a segment opens when (task running ∧
// vCPU active) begins and closes on any change (host preemption, SMT/DVFS
// rate change, context switch). Work progresses at HostMachine::SpeedOf()
// during open segments only — a preempted vCPU's task is exactly the paper's
// "stalled running task" (§2.3).
#ifndef SRC_GUEST_GUEST_VCPU_H_
#define SRC_GUEST_GUEST_VCPU_H_

#include <memory>
#include <vector>

#include "src/base/check.h"
#include "src/base/time.h"
#include "src/guest/runqueue.h"
#include "src/guest/task.h"
#include "src/host/vcpu_thread.h"
#include "src/sim/event_callback.h"
#include "src/sim/timer_wheel.h"

namespace vsched {

class GuestKernel;
class HostMachine;
class Simulation;

// Observer of a vCPU's (host-active, current task) pair. OnVcpuStateChanged
// runs after every change that may alter either half: host schedule-in and
// schedule-out, Dispatch and PutCurrent. Callbacks must not re-enter the
// guest kernel or add/remove watchers.
class VcpuWatcher {
 public:
  virtual ~VcpuWatcher() = default;
  virtual void OnVcpuStateChanged(TimeNs now) = 0;
  // The vCPU (and with it its guest kernel) is being destroyed; the watcher
  // is already unregistered from it and must not touch it again.
  virtual void OnVcpuDetached(int index) = 0;
};

class GuestVcpu : public VcpuHostClient {
 public:
  GuestVcpu(GuestKernel* kernel, int index, VcpuThread* thread);
  ~GuestVcpu() override;

  GuestVcpu(const GuestVcpu&) = delete;
  GuestVcpu& operator=(const GuestVcpu&) = delete;

  int index() const { return index_; }
  VcpuThread* thread() const { return thread_; }
  // Read-only: the runqueue changes only through the kernel, which keeps its
  // occupancy masks in step.
  const Runqueue& rq() const { return rq_; }
  Task* current() const { return current_; }

  // Host-activity view (what a real guest can observe or infer).
  bool active() const { return thread_->active(); }
  TimeNs StealClock(TimeNs now) const { return thread_->steal_ns(now); }

  // Guest-scheduler idle: no current task and empty runqueue.
  bool IsIdle() const { return current_ == nullptr && rq_.empty(); }

  // When the vCPU last became guest-idle (valid while IsIdle()).
  TimeNs idle_since() const { return idle_since_; }

  // Total work units executed on this vCPU (the Fig 20 "cycles" proxy).
  Work work_done() const { return work_done_; }

  // Spin guards keep the vCPU demanding host time while a cross-vCPU
  // protocol (ivh's pull handshake) is in flight, even with an empty queue.
  void HoldSpin() {
    ++spin_holds_;
    UpdateHostDemand();
  }
  void ReleaseSpin() {
    VSCHED_CHECK(spin_holds_ > 0);
    --spin_holds_;
    UpdateHostDemand();
  }

  // Total time this vCPU was executing guest tasks.
  TimeNs busy_ns() const { return busy_ns_; }

  // CFS's own capacity estimate for this vCPU (possibly overridden by vcap
  // through the vSched bridge). Implemented in GuestKernel.
  double CfsCapacity() const;

  // Registers/unregisters a state watcher (see VcpuWatcher). Watchers still
  // registered when the vCPU dies receive OnVcpuDetached.
  void AddWatcher(VcpuWatcher* watcher);
  void RemoveWatcher(VcpuWatcher* watcher);
  size_t watcher_count() const { return watchers_.size(); }

  // VcpuHostClient:
  void OnVcpuScheduledIn(TimeNs now) override;
  void OnVcpuScheduledOut(TimeNs now) override;
  void OnVcpuRateChanged(TimeNs now) override;

 private:
  friend class GuestKernel;

  // Starts/stops accounting for (current task × active vCPU) intervals.
  void OpenSegment(TimeNs now);
  void CloseSegment(TimeNs now);
  // Folds the open segment into the task without closing it (tick sync).
  void SyncSegment(TimeNs now);

  void OnBurstComplete();

  // Re-evaluates what should run; performs the context switch. Only valid
  // while the vCPU is active (guest code executes).
  void Reschedule(TimeNs now);
  // Dispatches `next` (must be dequeued) as current.
  void Dispatch(Task* next, TimeNs now);
  // Moves current back to the runqueue (preemption) or leaves it off-queue.
  void PutCurrent(TimeNs now, bool requeue);

  // Updates the halted/wants-to-run demand signal toward the host.
  void UpdateHostDemand();

  // Removes and returns the oldest in-flight RunOnVcpu payload.
  EventCallback TakeInflightIpi();

  void NotifyWatchers(TimeNs now) {
    // Indexed rather than range-for: a watcher that broke the no-add/remove
    // rule could not invalidate an iterator.
    for (size_t i = 0; i < watchers_.size(); ++i) {
      watchers_[i]->OnVcpuStateChanged(now);
    }
  }

  GuestKernel* kernel_;
  Simulation* sim_;
  int index_;
  VcpuThread* thread_;
  Runqueue rq_;
  Task* current_ = nullptr;

  // Execution segment state. The burst-completion deadline is a wheel timer
  // registered once per vCPU and re-armed on every segment open: segments
  // open/close on every context switch and host preemption, which as heap
  // events made this one of the queue's hottest cancel/re-post pairs.
  bool segment_open_ = false;
  TimeNs segment_start_ = 0;
  double segment_speed_ = 0;
  TimerId completion_timer_ = kInvalidTimerId;

  bool resched_pending_ = false;
  TimeNs idle_since_ = 0;
  int spin_holds_ = 0;

  // Deferred function calls (IPIs) to execute when next active.
  std::vector<EventCallback> pending_ipis_;
  // Payloads of RunOnVcpu calls whose delivery event is still in flight,
  // oldest first from inflight_head_. The IPI delay is constant per kernel,
  // so deliveries fire in post order and each one pops the front; keeping
  // the payload here leaves the delivery event small enough to stay inline.
  std::vector<EventCallback> inflight_ipis_;
  size_t inflight_head_ = 0;

  // State watchers (vtop pair probes); empty on almost every vCPU.
  std::vector<VcpuWatcher*> watchers_;

  // Accounting.
  Work work_done_ = 0;
  TimeNs busy_ns_ = 0;

  // Raw CFS capacity estimation state (steal-based, §5.3).
  double cfs_cap_raw_ = kCapacityScale;
  TimeNs cfs_cap_last_update_ = 0;
  TimeNs cfs_cap_last_steal_ = 0;

  // Scheduler-tick bookkeeping.
  TimeNs last_tick_ = 0;
  TimeNs next_balance_ = 0;
  TimeNs next_active_balance_ = 0;

  // NOHZ state (tickless mode only): set when the periodic tick fired on an
  // inactive vCPU and went dormant; GuestKernel::ResumeTick re-arms on the
  // tick grid when the vCPU is scheduled back in.
  bool tick_stopped_ = false;
  TimeNs tick_stop_time_ = 0;

  // Liveness token for event closures (burst-completion events) posted to
  // the simulation: the closure no-ops once this vCPU is gone (the PR-6
  // pattern, enforced by vsched-lint's event-lifetime rule).
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace vsched

#endif  // SRC_GUEST_GUEST_VCPU_H_
