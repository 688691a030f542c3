// The guest OS scheduler: a CFS-compatible kernel for one VM.
//
// Implements the Linux mechanisms vSched builds on (§2.2): per-vCPU
// runqueues with vruntime fairness and SCHED_IDLE subordination, PELT,
// wake-up CPU selection over schedule domains, periodic/idle load balancing,
// misfit active balance, steal-aware CFS capacity estimation, cgroup-cpuset
// banning, and the wake-placement and scheduler-tick hook points
// (kernel_hooks.h). vSched (src/core) attaches to them exactly where the
// paper inserts BPF hooks and its kernel module.
#ifndef SRC_GUEST_GUEST_KERNEL_H_
#define SRC_GUEST_GUEST_KERNEL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/guest/cpumask.h"
#include "src/guest/guest_topology.h"
#include "src/guest/guest_vcpu.h"
#include "src/guest/kernel_hooks.h"
#include "src/guest/pelt_arena.h"
#include "src/guest/task.h"
#include "src/sim/event_callback.h"
#include "src/sim/rng.h"
#include "src/sim/timer_wheel.h"
#include "src/stats/stats.h"

namespace vsched {

class FaultInjector;
class HostMachine;
class Simulation;
class VcpuThread;

struct GuestParams {
  // Pick policy: CFS (default) or EEVDF — demonstrates vSched's claim of
  // portability across fair schedulers (§4).
  bool use_eevdf = false;
  TimeNs tick_period = MsToNs(1);
  // NOHZ-style tick elision (on by default): an inactive (descheduled) vCPU
  // stops its periodic tick and re-arms on the grid when it is next
  // scheduled in, and vtop pair probes elide samples that cannot change
  // anything. Elided firings are provable no-ops, so observable state —
  // vruntime, PELT, bvs/ivh classifications, stats, JSONL — is
  // byte-identical either way (enforced by the vsched_run_tickless ctest
  // against `false`, the ticking oracle).
  bool tickless = true;
  // Guest CFS granularities (guest-side, distinct from the host's).
  TimeNs min_granularity = UsToNs(1500);
  TimeNs wakeup_granularity = UsToNs(1000);
  // Periodic load balance interval per vCPU.
  TimeNs balance_interval = MsToNs(4);
  // Busiest/local load ratio that triggers a pull.
  double imbalance_pct = 1.25;
  // Misfit active balance: task util above this fraction of the vCPU's
  // capacity marks it misfit; a target needs this much more capacity.
  double misfit_util_fraction = 0.8;
  double misfit_capacity_margin = 1.2;
  // Minimum gap between capacity-driven active-balance pushes per vCPU
  // (stands in for CFS's nr_balance_failed escalation).
  TimeNs active_balance_interval = MsToNs(32);
  // Balancer will not re-migrate a task this soon after its last migration
  // (CFS cache-hot / migration-cost analogue).
  TimeNs migration_cooldown = MsToNs(5);
  // Reschedule-IPI delivery delay to an active remote vCPU.
  TimeNs ipi_delay = UsToNs(5);
  // Capacity asymmetry ratio beyond which wake placement turns greedy on
  // capacity (mirrors CFS asym-capacity wake paths).
  double asym_capacity_ratio = 1.15;
  // Steal-based CFS capacity estimate smoothing half-life.
  TimeNs cfs_cap_half_life = MsToNs(100);
  // Idle vCPUs' estimates drift back to full capacity with this half-life
  // (steal is only observable while busy — the §5.3 mismatch).
  TimeNs cfs_cap_idle_drift_half_life = MsToNs(250);
};

// Aggregate scheduler counters for experiments.
struct KernelCounters {
  Counter migrations;          // queued-task pulls + wake rebalances
  Counter active_migrations;   // running-task (misfit/ivh) migrations
  Counter context_switches;
  Counter wakeup_ipis;             // reschedule IPIs to other vCPUs
  Counter wakeup_ipis_cross_socket;  // ... crossing physical sockets
};

class GuestKernel {
 public:
  // Primary constructor: params are a shared immutable snapshot, so a fleet
  // of thousands of VMs built from one spec holds one copy total. A null
  // snapshot means defaults.
  GuestKernel(Simulation* sim, HostMachine* machine, std::vector<VcpuThread*> threads,
              std::shared_ptr<const GuestParams> params);
  // Convenience for single-VM call sites.
  GuestKernel(Simulation* sim, HostMachine* machine, std::vector<VcpuThread*> threads,
              GuestParams params = GuestParams{});
  ~GuestKernel();

  GuestKernel(const GuestKernel&) = delete;
  GuestKernel& operator=(const GuestKernel&) = delete;

  Simulation* sim() const { return sim_; }
  HostMachine* machine() const { return machine_; }
  // Live VM migration: repoints the kernel at the destination host. The
  // caller (Vm::MigrateToMachine) must have re-attached every vCPU thread to
  // `machine` first; topology-derived caches are not kept across the switch.
  void SetMachine(HostMachine* machine) { machine_ = machine; }
  const GuestParams& params() const { return *params_; }
  int num_vcpus() const { return static_cast<int>(vcpus_.size()); }
  GuestVcpu& vcpu(int i) { return *vcpus_[i]; }
  const GuestVcpu& vcpu(int i) const { return *vcpus_[i]; }
  KernelCounters& counters() { return counters_; }

  // ---- Task lifecycle (workload-facing) ----

  // Creates a task; the behavior must outlive it. `allowed` defaults to all.
  Task* CreateTask(std::string name, TaskPolicy policy, TaskBehavior* behavior,
                   CpuMask allowed = CpuMask(~0ULL));

  // Starts a new task: asks the behavior for its first action and places it.
  void StartTask(Task* task);

  // Wakes a task waiting on an event (no-op unless it is kSleeping on an
  // event wait). `waker_cpu` biases placement, -1 for external events.
  void WakeTask(Task* task, int waker_cpu = -1);

  // ---- Scheduler state (prober/vSched-facing) ----

  // Current simulated kernel clock (sched_clock analogue).
  TimeNs SchedClock() const;

  // The CFS capacity estimate used by all capacity-aware paths. Overridden
  // per-vCPU via SetCapacityOverride(s) (the vSched kernel module).
  double CfsCapacityOf(int cpu) const;
  void SetCapacityOverride(int cpu, double capacity);
  // Overrides every vCPU at once (one vcap publish); `capacities` holds one
  // entry per vCPU.
  void SetCapacityOverrides(const std::vector<double>& capacities);
  void ClearCapacityOverrides();

  // Linux only enables misfit/asymmetric-capacity paths when the topology
  // declares distinct CPU capacities (SD_ASYM_CPUCAPACITY). In a VM that
  // happens only when vcap publishes real capacities via overrides. Cached:
  // recomputed whenever the overrides change.
  bool AsymCapacityKnown() const { return asym_known_; }

  // ---- Occupancy masks (the kernel's cpumasks for balance and placement) ----
  // One bit per vCPU, refreshed wherever a vCPU's current task or runqueue
  // changes, so every balance and placement scan visits only the vCPUs that
  // can answer it:
  //   idle_mask()            IsIdle(): no current task, empty runqueue;
  //   placement_idle_mask()  idle for wake placement (sched_idle_cpu()): the
  //                          current task is null or SCHED_IDLE and no
  //                          normal task is queued;
  //   queued_normal_mask()   at least one normal task queued;
  //   queued_idle_mask()     at least one SCHED_IDLE task queued.
  CpuMask idle_mask() const { return idle_; }
  CpuMask placement_idle_mask() const { return placement_idle_; }
  CpuMask queued_normal_mask() const { return queued_normal_; }
  CpuMask queued_idle_mask() const { return queued_idle_; }

  // Recomputes the four masks and the asym-capacity flag from the vCPUs and
  // the overrides and reports any disagreement with the cached values
  // through src/base/audit.h. Runs after every refresh while auditing is
  // enabled; safe to call directly at any time.
  void AuditVerify() const;

  // Schedule-domain rebuild (vtop → kernel module, §4).
  const GuestTopology& topology() const { return topology_; }
  void RebuildSchedDomains(const GuestTopology& topo);

  // cgroup-cpuset bans (rwc, §3.4). Straggler-banned vCPUs may still run
  // SCHED_IDLE and straggler-exempt tasks; stack-banned vCPUs only run
  // all-ban-exempt tasks (vtop probers). Applying bans evacuates newly
  // ineligible tasks.
  void SetBans(CpuMask straggler_banned, CpuMask stack_banned);
  CpuMask straggler_banned() const { return straggler_banned_; }
  CpuMask stack_banned() const { return stack_banned_; }

  // Affinity actually usable by `task` right now.
  CpuMask EffectiveAllowed(const Task* task) const;

  // Preemption rule shared by wakeups, burst boundaries, and ticks: a higher
  // class always preempts; within a class, `next` must lead by more than the
  // wakeup granularity in vruntime.
  bool ShouldPreempt(const Task* curr, const Task* next) const;

  // ---- Hooks (where the paper's BPF programs attach, §4) ----

  // Wake/fork placement override (see WakePlacement); null means CFS only.
  void set_placement(WakePlacement* placement) { placement_ = placement; }
  WakePlacement* placement() const { return placement_; }

  // Registers/unregisters a tick listener (see TickListener). Removing one
  // that is not registered is a no-op.
  void AddTickListener(TickListener* listener);
  void RemoveTickListener(TickListener* listener);

  // ---- Primitives vSched components build on ----

  // Runs `fn` in the context of vCPU `cpu`: after ipi_delay if it is active,
  // otherwise deferred until it next becomes active. If `kick` is set and
  // the vCPU is halted, it is woken (pre-wake, §3.3). Calls made to an
  // active vCPU are delivered in the order they were made.
  void RunOnVcpu(int cpu, EventCallback fn, bool kick = false);

  // Migrates a queued (not running) task. Returns false if no longer queued.
  bool MigrateQueuedTask(Task* task, int to_cpu);

  // Migrates the running task of `from_cpu` onto `to_cpu` (stopper-style).
  // Returns false if `task` is no longer running there.
  bool MigrateRunningTask(Task* task, int from_cpu, int to_cpu);

  // Work-unit penalty for transferring `cache_lines` between the hardware
  // threads currently hosting two vCPUs (communication cost model, Fig 13).
  Work CommWorkPenalty(int from_cpu, int to_cpu, int cache_lines) const;

  // True if the two vCPUs' hardware threads are in different sockets now.
  bool CrossSocketPhysical(int cpu_a, int cpu_b) const;

  // ---- Fault injection (src/fault/) ----
  // The probes consult this at their registered injection points; null (the
  // default) means no chaos and leaves every probe path untouched.
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }
  FaultInjector* fault_injector() const { return fault_injector_; }

  // ---- Test/bench utilities ----
  Rng& rng() { return rng_; }
  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }

 private:
  friend class GuestVcpu;
  // Deliberate-corruption backdoor for the audit tests (tests/audit/).
  friend struct AuditTestAccess;
  // Scan-order access for the occupancy-mask tests (tests/guest/).
  friend struct GuestKernelTestAccess;

  // Re-derives vCPU `cpu`'s bits in the occupancy masks. Called right after
  // each change to its current task or runqueue, before anything that can
  // re-enter the scheduler.
  void RefreshOccupancy(int cpu);
  void RecomputeAsymCapacity();

  // CFS wake placement (select_task_rq_fair analogue).
  int SelectTaskRqCfs(Task* task, int prev_cpu, int waker_cpu);
  int ScanForIdle(CpuMask domain, bool want_idle_core, int scan_from);

  // Places and enqueues a runnable task, kicking the target vCPU.
  void EnqueueTask(Task* task, int cpu, bool wakeup, int waker_cpu);
  void SendReschedIpi(int from_cpu, int to_cpu);

  // Tick machinery.
  void OnTick(int cpu);
  void CfsTick(GuestVcpu* v, TimeNs now);
  void MisfitCheck(GuestVcpu* v, TimeNs now);
  // Re-arms a NOHZ-stopped tick on its grid; called when the vCPU is
  // scheduled back in. No-op unless the tick is stopped.
  void ResumeTick(int cpu);

  // Load balancing.
  void PeriodicBalance(GuestVcpu* v, TimeNs now);
  void NewIdleBalance(GuestVcpu* v, TimeNs now);
  bool TryPullInto(GuestVcpu* v, CpuMask domain, bool idle_pull, TimeNs now);

  // Behavior-action plumbing.
  void ApplyAction(Task* task, TaskAction action, bool on_cpu, TimeNs now, int waker_cpu = -1);
  void TimedWake(Task* task, uint64_t token);
  void CountIpi(int from_cpu, int to_cpu);
  void FinishTask(Task* task, TimeNs now);
  void EvacuateIneligible(TimeNs now);

  Simulation* sim_;
  HostMachine* machine_;
  std::shared_ptr<const GuestParams> params_;
  Rng rng_;

  std::vector<std::unique_ptr<GuestVcpu>> vcpus_;
  // Declared before tasks_: tasks hold raw pointers into the arena, so it
  // must be destroyed after them.
  PeltArena pelt_arena_;
  std::vector<std::unique_ptr<Task>> tasks_;
  uint64_t next_task_id_ = 1;
  uint64_t next_sleep_token_ = 1;

  GuestTopology topology_;
  std::vector<double> capacity_override_;  // <0 → none
  bool asym_known_ = false;                // AsymCapacityKnown() cache
  CpuMask idle_;
  CpuMask placement_idle_;
  CpuMask queued_normal_;
  CpuMask queued_idle_;
  CpuMask straggler_banned_;
  CpuMask stack_banned_;

  WakePlacement* placement_ = nullptr;
  std::vector<TickListener*> tick_listeners_;
  FaultInjector* fault_injector_ = nullptr;

  KernelCounters counters_;
  int scan_rotor_ = 0;

  // One registered wheel timer per vCPU, re-armed in place every period.
  // (This replaces a vector of per-firing heap EventIds, which kept stale
  // cancelled handles alive for the VM lifetime; a TimerId is a stable slot
  // that re-arming reclaims.) tick_origins_ pins each vCPU's tick grid so a
  // NOHZ-stopped tick resumes on exactly the phase it would have kept.
  std::vector<TimerId> tick_timers_;
  std::vector<TimeNs> tick_origins_;
  bool shutting_down_ = false;
  // IPI deliveries (RunOnVcpu, SendReschedIpi) are in-flight simulation
  // events holding raw GuestVcpu/kernel pointers. A VM destroyed
  // mid-simulation (fleet tenant departure) would leave them dangling, so
  // each delivery closure checks this token and no-ops once it expires.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace vsched

#endif  // SRC_GUEST_GUEST_KERNEL_H_
