// A single vtop measurement: cache-line transfer probing between two vCPUs
// (§3.1, Figure 7).
//
// Two high-priority prober tasks pinned to the target vCPUs ping-pong a
// cache line. Transfers only complete while both probers are executing
// simultaneously; otherwise the running prober spins, accruing attempts.
// Stacked vCPUs never run simultaneously, so the probe times out with ~zero
// transfers and reports infinite latency. The timeout is extended when few
// transfers were observed, to avoid misidentifying busy-but-unstacked pairs.
//
// The probe is modelled on a grid of samples, one every sample_quantum from
// Start(). It is event-driven: both vCPUs notify it (VcpuWatcher) whenever
// their (active, current task) pair may change, and a sample only runs as a
// timer firing where it can change something — at every grid point while
// both probers run (those samples draw the kernel RNG) and at the one grid
// point where attempts reach the timeout while exactly one prober spins.
// The grid points in between are elided and accounted in closed form, which
// gives bit-identical results to firing every sample. A guest with
// GuestParams::tickless off keeps the polling probe (a sample timer firing
// at every grid point) as the differential oracle.
#ifndef SRC_PROBE_PAIR_PROBE_H_
#define SRC_PROBE_PAIR_PROBE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/base/time.h"
#include "src/guest/guest_vcpu.h"
#include "src/guest/task.h"
#include "src/probe/robust.h"
#include "src/sim/timer_wheel.h"

namespace vsched {

class GuestKernel;
class Simulation;

struct PairProbeConfig {
  int target_transfers = 500;      // Table 1
  int timeout_attempts = 15000;    // Table 1
  int max_extensions = 3;          // timeout doublings before giving up
  int min_transfers_for_latency = 10;
  TimeNs attempt_period = UsToNs(1);  // one spin attempt per µs
  TimeNs sample_quantum = UsToNs(10);
  double noise = 0.08;  // multiplicative measurement jitter
  // Robust latency estimation under fault injection: the reported latency
  // becomes the median of the first observations instead of the minimum
  // (a single corrupted-low sample would otherwise fake an SMT sibling).
  ProbeRobustConfig robust;
};

inline constexpr double kInfiniteLatency = std::numeric_limits<double>::infinity();

struct PairProbeResult {
  int cpu_a = -1;
  int cpu_b = -1;
  double latency_ns = kInfiniteLatency;  // infinite → stacked
  double transfers = 0;
  TimeNs duration = 0;
  int extensions = 0;
  // Fraction of this probe's transfer observations that survived fault
  // injection; 1.0 on clean runs (and for stacking verdicts, which rest on
  // the absence of transfers rather than on latency samples).
  double confidence = 1.0;
};

class PairProbe : private VcpuWatcher {
 public:
  using DoneCallback = std::function<void(const PairProbeResult&)>;

  PairProbe(GuestKernel* kernel, int cpu_a, int cpu_b, PairProbeConfig config, DoneCallback done);
  ~PairProbe() override;

  PairProbe(const PairProbe&) = delete;
  PairProbe& operator=(const PairProbe&) = delete;

  void Start();
  bool done() const { return done_reported_; }

  // True once the probe finished AND both spin tasks exited — only then may
  // the probe (which owns the behaviors) be destroyed.
  bool CanDestroy() const;

  // Read-only invariant, called under the src/base/audit.h gate after every
  // notification and sample: the cached prober state matches the vCPUs, and
  // the sample timer is disarmed while neither prober runs, armed at the
  // timeout grid point while one runs, and armed at the next grid point
  // while both run (disarmed once done).
  void AuditVerify() const;

 private:
  friend struct PairProbeTestAccess;
  class SpinBehavior;

  // VcpuWatcher:
  void OnVcpuStateChanged(TimeNs now) override;
  void OnVcpuDetached(int index) override;

  void Sample();
  void Finish(double latency);

  bool ProberRunning(const GuestVcpu* vcpu, const Task* prober) const;
  bool CachedStateIsLive() const;
  TimeNs GridPoint(int64_t k) const { return started_at_ + k * config_.sample_quantum; }
  // Accounts `n` grid points that ran no sample, in the cached prober state.
  void ElideSamples(int64_t n);
  // Samples (>= 1) from next_sample_ on until attempts_ reach the timeout
  // with exactly one prober spinning.
  int64_t SamplesToTimeout() const;
  // Where the sample timer belongs in the cached state; kTimeInfinity when
  // no sample can change anything.
  TimeNs SampleDeadline() const;
  void ArmSampleTimer();
  void StopWatching();

  GuestKernel* kernel_;
  Simulation* sim_;
  int cpu_a_;
  int cpu_b_;
  PairProbeConfig config_;
  DoneCallback done_;

  std::unique_ptr<SpinBehavior> behavior_a_;
  std::unique_ptr<SpinBehavior> behavior_b_;
  Task* prober_a_ = nullptr;
  Task* prober_b_ = nullptr;

  TimeNs started_at_ = 0;
  double transfers_ = 0;
  double attempts_ = 0;
  double current_timeout_ = 0;
  int extensions_ = 0;
  double min_latency_seen_ = kInfiniteLatency;
  // First observations (bounded), for the robust median estimate.
  std::vector<double> observations_;
  uint64_t samples_kept_ = 0;
  uint64_t samples_dropped_ = 0;
  bool done_reported_ = false;
  // Ticking oracle: fire the sample timer at every grid point.
  bool poll_every_sample_ = false;
  // Attempts one spinning prober adds per sample; an integral value, so any
  // number of elided samples adds up exactly.
  double attempts_per_sample_ = 0;
  // Index of the first grid point (GridPoint) not yet sampled or elided.
  int64_t next_sample_ = 1;
  // The probers' running state as of the last notification or sample.
  bool a_running_ = false;
  bool b_running_ = false;
  // The watched vCPUs; null once detached (or before Start / after Finish).
  GuestVcpu* vcpu_a_ = nullptr;
  GuestVcpu* vcpu_b_ = nullptr;
  // A wheel timer registered once and re-armed in place, armed only at the
  // grid points where a sample can change something (see the file comment).
  TimerId sample_timer_ = kInvalidTimerId;

  // Liveness token for posted event closures (the PR-6 pattern, enforced by
  // vsched-lint's event-lifetime rule). Must be the last member so it
  // expires first during destruction.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace vsched

#endif  // SRC_PROBE_PAIR_PROBE_H_
