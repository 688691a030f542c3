// Sharded (PDES) fleet execution: the datacenter control plane of
// src/cluster/fleet.h re-architected as a conservative parallel
// discrete-event simulation, selected with `vsched_run --fleet --shards=N`.
//
// Partitioning. Hosts are grouped into fixed *cells* of
// FleetSpec::cell_hosts contiguous hosts. Each cell is one logical process:
// it owns a private Simulation (event queue, timer wheel, RNG stream) plus
// every entity pinned to its hosts — VM stacks, probes, workload apps, fault
// injectors. A cell is also the migration domain: consolidation drains VMs
// within a cell only (rack locality), which is what keeps a live-migrating
// VM's pending timers inside one event queue. The partition is a function of
// the spec alone — never of --shards — so the simulated behaviour cannot
// depend on the worker-thread count.
//
// Synchronization. Time advances in lookahead windows of
// W = gcd(control_period, boot_delay, migration_copy_latency,
// migration_downtime): the conservative PDES bound, since no control-plane
// interaction takes effect in less than W and every control-plane delay is a
// multiple of W. Within a window (T, T+W] each cell advances its Simulation
// independently — worker threads from the runner's pool when --shards > 1,
// in cell order on the caller's thread otherwise. At each barrier T all
// cells are quiesced at exactly now() == T and the single-threaded
// coordinator runs: it drains the ShardMailbox in canonical
// (due, origin, seq) order (arrivals, boot completions, migration phases,
// departures), then on the control cadence reads host state directly —
// safe, because nothing is running — for telemetry, provisioning, and
// consolidation decisions whose delayed effects are posted back through the
// mailbox.
//
// Determinism. The JSONL a sharded fleet run emits is byte-identical for
// every --shards value (the vsched_run_fleet_sharded ctest), the same
// guarantee class as the runner's --jobs: the coordinator is sequential, the
// mailbox order is canonical, cells share no mutable state inside a window,
// and per-cell PerfCounters keep even the hot-path tallies race-free (merged
// in cell order at Finish). Sharded output is its own deterministic contract
// — it is not required to byte-match the sequential engine, whose arrivals
// are not quantized to barriers and whose RNG streams fork from one root.
//
// See docs/PERF.md ("Sharded fleet execution") for the lookahead derivation
// and docs/CLUSTER.md for the operator view.
#ifndef SRC_CLUSTER_SHARDED_FLEET_H_
#define SRC_CLUSTER_SHARDED_FLEET_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/base/perf_counters.h"
#include "src/base/thread_pool.h"
#include "src/base/time.h"
#include "src/cluster/fleet.h"
#include "src/cluster/fleet_spec.h"
#include "src/cluster/placement.h"
#include "src/core/config.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/sim/rng.h"
#include "src/sim/shard_mailbox.h"
#include "src/sim/simulation.h"
#include "src/stats/stats.h"

namespace vsched {

// One logical process of the sharded engine: a contiguous host range behind
// a private Simulation. Exactly one thread touches a cell inside any window;
// the coordinator touches it only at barriers. `counters` is the cell's
// PerfCounters sink — installed via PerfCounters::Scope around construction
// and every window so the pointer components cache at construction is the
// cell's own, keeping tallies race-free at any shard count.
struct FleetCell {
  int id = 0;
  int first_host = 0;
  PerfCounters counters;
  std::unique_ptr<Simulation> sim;
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
};

class ShardedFleet {
 public:
  // `shards` is the worker-thread count (>= 1); 1 runs cells sequentially on
  // the calling thread. The cell partition comes from spec.cell_hosts and is
  // independent of `shards`.
  ShardedFleet(FleetSpec spec, uint64_t seed, VSchedOptions guest_options, int shards,
               const FaultPlan* fault_plan = nullptr, bool tickless = true);
  ~ShardedFleet();

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  // Runs the whole experiment: arrival schedule, window loop to `horizon`,
  // stats harvest. Call once. Throws SimBudgetExceeded (deterministically,
  // lowest cell id first) when a per-cell event budget trips.
  void Run(TimeNs horizon);

  const FleetTotals& totals() const { return totals_; }
  const FleetSpec& spec() const { return spec_; }
  TimeNs window() const { return window_; }
  int num_cells() const { return static_cast<int>(cells_.size()); }
  int shards() const { return shards_; }
  int hosts_on() const;
  const ClusterHost& host(int id) const;
  const TenantVm& tenant(int id) const { return *tenants_[static_cast<size_t>(id)]; }
  int num_tenants() const { return static_cast<int>(tenants_.size()); }

  // Deterministic runaway-run watchdog, applied to each cell's Simulation.
  void SetEventBudgetPerCell(uint64_t budget);
  uint64_t events_dispatched() const;  // summed over cells

 private:
  FleetCell* CellOfHost(int host_id);
  const FleetCell* CellOfHost(int host_id) const;
  int CapacityVcpus() const;
  std::vector<HostLoadView> LoadViews() const;
  TimeNs NextBarrierAtOrAfter(TimeNs t) const;

  void ScheduleArrivals(TimeNs start);
  void BarrierPhase(TimeNs now);
  void RunCellsUntil(TimeNs deadline);
  void Finish(TimeNs now);

  void OnVmArrival(int tenant_id, TimeNs now);
  bool TryPlace(TenantVm* tenant, TimeNs now);
  void PlacePending(TimeNs now);
  void BootHostsIfNeeded(TimeNs now);
  void OnBootComplete(int host_id, TimeNs now);
  void ControlTick(TimeNs now);
  void SampleEnergyAndUtil(TimeNs now);
  void MaybeConsolidate(TimeNs now);
  void OnMigrationDowntime(int tenant_id, TimeNs now);
  void OnMigrationCommit(int tenant_id, TimeNs now);
  void OnDepartureDue(int tenant_id, TimeNs now);
  void DoDepart(TenantVm* tenant, TimeNs now);
  void HarvestStats(TenantVm* tenant);
  void StopApps(TenantVm* tenant);
  void OccupyThreads(TenantVm* tenant);
  void VacateThreads(TenantVm* tenant);
  void ReshapeThread(ClusterHost* host, HwThreadId tid);

  FleetSpec spec_;
  VSchedOptions guest_options_;
  bool tickless_;
  int shards_;
  TimeNs window_ = 0;
  Rng control_rng_;

  std::shared_ptr<const HostTopology> topology_;
  std::shared_ptr<const HostSchedParams> host_params_;
  std::shared_ptr<const GuestParams> guest_params_;
  std::unique_ptr<PlacementPolicy> placement_;

  // Cells before tenants_: tenants hold Vms whose vCPU threads detach from
  // cell-owned machines at destruction, so tenants must be destroyed first
  // (members die in reverse declaration order).
  std::vector<std::unique_ptr<FleetCell>> cells_;
  std::vector<std::unique_ptr<TenantVm>> tenants_;
  std::deque<int> pending_;  // arrived but unplaced tenant ids, FIFO
  ShardMailbox mailbox_;
  std::unique_ptr<ThreadPool> pool_;  // null when shards_ == 1

  TimeNs start_time_ = 0;
  TimeNs last_sample_ = 0;
  double util_integral_ = 0;     // sum over On hosts of util * dt
  double on_time_integral_ = 0;  // sum over On hosts of dt

  Distribution fleet_latency_;
  Distribution tenant_p99s_;
  FleetTotals totals_;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace vsched

#endif  // SRC_CLUSTER_SHARDED_FLEET_H_
