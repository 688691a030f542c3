// The datacenter control plane: thousands of simulated hosts under one
// discrete-event Simulation, each hosting multiple guest VM stacks.
//
// A Fleet owns ClusterHosts (HostMachine + power state + energy/utilization
// accounting) and TenantVms (Vm + guest kernel + VSched + an open-loop
// LatencyApp). The control plane is itself event-driven: VM arrivals are a
// Poisson process, placement is a pluggable policy (src/cluster/placement.h),
// provisioning is reactive (hosts boot on demand, idle hosts power down),
// consolidation drains under-committed hosts via live migration modeled as a
// (copy-latency, downtime) event pair — during downtime the VM's vCPU
// threads are paused, which the guest observes as steal.
//
// Determinism: every decision is a function of simulation events and one RNG
// stream forked from the Simulation's root, so a (FleetSpec, seed, options)
// triple replays byte-identically — the property the vsched_run_fleet ctest
// asserts across --jobs values.
#ifndef SRC_CLUSTER_FLEET_H_
#define SRC_CLUSTER_FLEET_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/cluster/fleet_spec.h"
#include "src/cluster/placement.h"
#include "src/core/config.h"
#include "src/core/vsched.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/guest/vm.h"
#include "src/host/machine.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"
#include "src/stats/stats.h"
#include "src/workloads/latency_app.h"
#include "src/workloads/throughput_app.h"

namespace vsched {

enum class HostPower { kOff, kBooting, kOn };

// One physical host plus the control-plane state the fleet keeps about it.
struct ClusterHost {
  int id = 0;
  std::unique_ptr<HostMachine> machine;
  HostPower power = HostPower::kOff;
  int committed_vcpus = 0;
  std::vector<int> thread_commits;  // committed vCPUs per hardware thread
  // Live occupants per hardware thread as (tenant id, vcpu index) — the
  // basis for commit-driven bandwidth caps (FleetSpec::cap_period).
  std::vector<std::vector<std::pair<int, int>>> occupants;
  // Rotating start position for first-fit thread reservation (see
  // Fleet::ReserveThreads): successive VMs overlap partially, which is what
  // produces intra-VM vCPU asymmetry.
  int reserve_cursor = 0;
  TimeNs idle_since = 0;  // last time committed_vcpus hit zero
  double energy_j = 0;    // integrated by the control loop
};

// One tenant: the per-VM simulation stack plus its lifecycle bookkeeping.
struct TenantVm {
  int id = 0;
  std::string name;
  int host_id = -1;
  std::vector<HwThreadId> tids;
  std::unique_ptr<Vm> vm;
  std::unique_ptr<VSched> vsched;
  bool batch = false;                       // noisy-neighbor batch tenant
  std::unique_ptr<LatencyApp> app;          // latency tenants only
  std::unique_ptr<TaskParallelApp> batch_app;  // batch tenants only
  // Co-located best-effort (SCHED_IDLE) work inside latency VMs; see
  // FleetSpec::background_tasks_per_vm.
  std::unique_ptr<TaskParallelApp> bg_app;
  TimeNs departs_at = 0;  // 0: lives to the horizon
  bool placed = false;
  bool departed = false;
  bool migrating = false;
  bool depart_pending = false;  // departure arrived mid-migration
  // Reserved migration destination (valid while migrating).
  int mig_dest_host = -1;
  std::vector<HwThreadId> mig_dest_tids;
};

// Aggregated fleet outcome; FillMetrics() flattens this into RunMetrics keys.
struct FleetTotals {
  uint64_t requests = 0;
  uint64_t slo_violations = 0;
  double fleet_p50_ns = 0;
  double fleet_p95_ns = 0;
  double fleet_p99_ns = 0;
  double fleet_mean_ns = 0;
  // Distribution of per-tenant p99s (only tenants that served requests).
  double tenant_p99_p50_ns = 0;
  double tenant_p99_p95_ns = 0;
  double tenant_p99_max_ns = 0;
  int vms_placed = 0;
  int vms_rejected = 0;  // still unplaced at the horizon
  int vms_departed = 0;
  uint64_t batch_chunks = 0;  // work completed by batch tenants
  uint64_t migrations = 0;
  int hosts_booted = 0;
  int hosts_shutdown = 0;
  int hosts_on_at_end = 0;
  double host_util_mean = 0;  // time-weighted mean utilization of On hosts
  double energy_j = 0;
  uint64_t fault_applied = 0;
  // Adversary/robustness aggregates (docs/ROBUSTNESS.md): attacker launches,
  // tenants whose degradation tracker ever transitioned, and the guest-side
  // containment counters summed at harvest. All zero on clean fleets and
  // whenever guests run without robust.enabled.
  uint64_t adversary_activations = 0;
  int degraded_tenants = 0;
  uint64_t pessimistic_publishes = 0;
  uint64_t quarantine_events = 0;
};

class Fleet {
 public:
  // `guest_options` selects the per-guest scheduler stack (Cfs vs Full —
  // the head-to-head axis). `fault_plan` (may be null) arms machine-level
  // chaos on every fourth host, reusing the PR-5 injector with no VM bound.
  Fleet(Simulation* sim, FleetSpec spec, VSchedOptions guest_options,
        const FaultPlan* fault_plan = nullptr, bool tickless = true);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Schedules VM arrivals and the control loop. Call once, then advance the
  // simulation to the horizon.
  void Start();

  // Stops the control loop and every live tenant, harvests their latency
  // distributions, and freezes totals(). Call once, after the horizon.
  void Finish();

  const FleetTotals& totals() const { return totals_; }
  const FleetSpec& spec() const { return spec_; }
  int hosts_on() const;
  const ClusterHost& host(int id) const { return *hosts_[static_cast<size_t>(id)]; }
  const TenantVm& tenant(int id) const { return *tenants_[static_cast<size_t>(id)]; }
  int num_tenants() const { return static_cast<int>(tenants_.size()); }

 private:
  int CapacityVcpus() const;
  std::vector<HostLoadView> LoadViews() const;
  void OnVmArrival(int tenant_id);
  bool TryPlace(TenantVm* tenant);
  void PlacePending();
  void BootHostsIfNeeded();
  void OnBootComplete(int host_id);
  void ControlTick();
  void SampleEnergyAndUtil();
  void MaybeConsolidate();
  void OnMigrationDowntime(int tenant_id);
  void OnMigrationCommit(int tenant_id);
  void DoDepart(TenantVm* tenant);
  void HarvestStats(TenantVm* tenant);
  void StopApps(TenantVm* tenant);
  // Registers/unregisters a placed tenant's vCPUs on its host's threads and
  // re-applies the commit-driven bandwidth caps of every touched thread.
  void OccupyThreads(TenantVm* tenant);
  void VacateThreads(TenantVm* tenant);
  void ReshapeThread(ClusterHost* host, HwThreadId tid);
  void ReleaseCommits(int host_id, const std::vector<HwThreadId>& tids);
  std::vector<HwThreadId> ReserveThreads(ClusterHost* host, int vcpus);

  Simulation* sim_;
  FleetSpec spec_;
  VSchedOptions guest_options_;
  bool tickless_;
  Rng rng_;

  std::shared_ptr<const HostTopology> topology_;
  std::shared_ptr<const HostSchedParams> host_params_;
  std::shared_ptr<const GuestParams> guest_params_;
  std::unique_ptr<PlacementPolicy> placement_;

  std::vector<std::unique_ptr<ClusterHost>> hosts_;
  std::vector<std::unique_ptr<TenantVm>> tenants_;
  std::deque<int> pending_;  // arrived but unplaced tenant ids, FIFO

  std::vector<std::unique_ptr<FaultInjector>> injectors_;

  Simulation::PeriodicHandle* control_loop_ = nullptr;
  TimeNs last_sample_ = 0;
  double util_integral_ = 0;   // sum over On hosts of util * dt
  double on_time_integral_ = 0;  // sum over On hosts of dt
  TimeNs start_time_ = 0;

  Distribution fleet_latency_;
  Distribution tenant_p99s_;
  FleetTotals totals_;
  bool finished_ = false;

  // Liveness token for control-plane event closures: posted lambdas capture
  // a weak_ptr to this and bail out once the Fleet is gone (the PR-6
  // pattern, enforced by vsched-lint's event-lifetime rule). Must be the
  // last member so it expires first during destruction.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace vsched

#endif  // SRC_CLUSTER_FLEET_H_
