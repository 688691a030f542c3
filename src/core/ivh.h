// Intra-VM harvesting (ivh, §3.3).
//
// A scheduler-tick hook that proactively migrates CPU-intensive running
// tasks away from vCPUs with inactive periods onto unused vCPUs, harvesting
// vCPU time that would otherwise be wasted on a stalled running task.
//
// The activity-aware migration follows Figure 9: (1) the source sends an
// interrupt that pre-wakes the target; (2) once active, the target issues a
// pull request and spins; (3) a stopper on the source detaches the running
// task and attaches it to the target. If the source is preempted before the
// pull request lands — i.e. the task already stalled — the migration is
// abandoned, as there would be no benefit.
#ifndef SRC_CORE_IVH_H_
#define SRC_CORE_IVH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/config.h"
#include "src/guest/kernel_hooks.h"

namespace vsched {

class GuestKernel;
class GuestVcpu;
class Task;
class Vact;
class Vcap;

class Ivh : private TickListener {
 public:
  Ivh(GuestKernel* kernel, Vcap* vcap, Vact* vact, IvhConfig config = IvhConfig{});
  // Unregisters from the kernel's tick.
  ~Ivh() override;

  Ivh(const Ivh&) = delete;
  Ivh& operator=(const Ivh&) = delete;

  // Registers for the kernel's scheduler tick.
  void Install();

  // Degraded mode: activity estimates are untrusted, so no new harvest
  // handshakes are started (in-flight ones still resolve or time out).
  void set_degraded(bool degraded) { degraded_ = degraded; }
  bool degraded() const { return degraded_; }

  uint64_t attempts() const { return attempts_; }
  uint64_t completed() const { return completed_; }
  uint64_t abandoned() const { return abandoned_; }

 private:
  struct Handshake {
    bool inflight = false;
    uint64_t id = 0;
    Task* task = nullptr;
    int src = -1;
    int dst = -1;
    TimeNs started = 0;
    TimeNs src_steal_at_start = 0;
    bool target_holding = false;
  };

  // TickListener:
  void OnTick(GuestVcpu* v, TimeNs now) override;

  int FindTarget(Task* task, int src, TimeNs now);
  void BeginHandshake(Task* task, int src, int dst, TimeNs now);
  void TargetActivated(int src, uint64_t id);
  void StopperRun(int src, uint64_t id);
  void FinishHandshake(int src, bool success);

  GuestKernel* kernel_;
  Vcap* vcap_;
  Vact* vact_;
  IvhConfig config_;
  bool degraded_ = false;
  std::vector<Handshake> handshakes_;  // one slot per source vCPU
  uint64_t next_id_ = 1;
  uint64_t attempts_ = 0;
  uint64_t completed_ = 0;
  uint64_t abandoned_ = 0;
  // Handshake steps travel through RunOnVcpu as [this]-capturing closures
  // that may sit in a vCPU's pending-IPI queue (or an in-flight IPI event)
  // past this Ivh's lifetime — fleet tenants tear their stack down
  // mid-simulation. Each closure holds a weak_ptr to this token and no-ops
  // once it expires.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace vsched

#endif  // SRC_CORE_IVH_H_
