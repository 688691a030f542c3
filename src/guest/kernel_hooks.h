// The typed hook points where vSched attaches to the guest kernel, as the
// paper's BPF programs attach to CFS (§4): wake placement and the scheduler
// tick. GuestKernel holds raw pointers to the implementations; each owner
// unregisters before it is destroyed.
#ifndef SRC_GUEST_KERNEL_HOOKS_H_
#define SRC_GUEST_KERNEL_HOOKS_H_

#include "src/base/time.h"

namespace vsched {

class GuestVcpu;
class Task;

// Wake/fork placement override (bvs, §3.2): returns the chosen vCPU, or -1
// to fall back to CFS placement. At most one is installed per kernel; its
// owner clears it before going away.
class WakePlacement {
 public:
  virtual ~WakePlacement() = default;
  virtual int SelectVcpu(Task* task, int prev_cpu, int waker_cpu) = 0;
};

// Scheduler-tick instrumentation (ivh, vact): OnTick runs on each tick of an
// *active* vCPU, after CFS tick work, in registration order. Listeners
// unregister themselves before they are destroyed, and must not add or
// remove listeners from inside OnTick.
class TickListener {
 public:
  virtual ~TickListener() = default;
  virtual void OnTick(GuestVcpu* v, TimeNs now) = 0;
};

}  // namespace vsched

#endif  // SRC_GUEST_KERNEL_HOOKS_H_
