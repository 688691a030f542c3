#include "src/probe/pair_probe.h"

#include <algorithm>
#include <cmath>

#include "src/base/audit.h"
#include "src/base/check.h"
#include "src/base/perf_counters.h"
#include "src/fault/fault_injector.h"
#include "src/guest/guest_kernel.h"
#include "src/host/machine.h"
#include "src/sim/simulation.h"

namespace vsched {

namespace {
// Cap on stored observations for the robust median: the first samples are an
// unbiased draw (corruption is i.i.d.), so a bounded prefix suffices.
constexpr size_t kMaxObservations = 128;
}  // namespace

// Spins in short bursts until the probe finishes.
class PairProbe::SpinBehavior : public TaskBehavior {
 public:
  explicit SpinBehavior(PairProbe* probe) : probe_(probe) {}

  TaskAction Next(TaskContext&, RunReason reason) override {
    if (reason == RunReason::kStarted) {
      return TaskAction::WaitEvent();
    }
    if (probe_->done_reported_) {
      return TaskAction::Exit();
    }
    return TaskAction::Run(WorkAtCapacity(kCapacityScale, UsToNs(20)));
  }

 private:
  PairProbe* probe_;
};

PairProbe::PairProbe(GuestKernel* kernel, int cpu_a, int cpu_b, PairProbeConfig config,
                     DoneCallback done)
    : kernel_(kernel),
      sim_(kernel->sim()),
      cpu_a_(cpu_a),
      cpu_b_(cpu_b),
      config_(config),
      done_(std::move(done)) {
  VSCHED_CHECK(cpu_a != cpu_b);
  current_timeout_ = config_.timeout_attempts;
  poll_every_sample_ = !kernel->params().tickless;
  attempts_per_sample_ = static_cast<double>(config_.sample_quantum) /
                         static_cast<double>(config_.attempt_period);
  // Elided samples are accounted as one multiplication; that equals the
  // polled sum only when every addend is an exact integer.
  VSCHED_CHECK_MSG(attempts_per_sample_ >= 1.0 &&
                       attempts_per_sample_ == std::floor(attempts_per_sample_),
                   "sample_quantum must be a whole multiple of attempt_period");
  sample_timer_ = sim_->CreateTimer([this, alive = std::weak_ptr<const bool>(alive_)] {
    if (alive.expired()) {
      return;
    }
    Sample();
  });
}

PairProbe::~PairProbe() {
  StopWatching();
  sim_->DestroyTimer(sample_timer_);
}

bool PairProbe::CanDestroy() const {
  if (!done_reported_) {
    return false;
  }
  bool a_done = prober_a_ == nullptr || prober_a_->state() == TaskState::kFinished;
  bool b_done = prober_b_ == nullptr || prober_b_->state() == TaskState::kFinished;
  return a_done && b_done;
}

void PairProbe::Start() {
  started_at_ = sim_->now();
  next_sample_ = 1;
  vcpu_a_ = &kernel_->vcpu(cpu_a_);
  vcpu_b_ = &kernel_->vcpu(cpu_b_);
  vcpu_a_->AddWatcher(this);
  vcpu_b_->AddWatcher(this);
  behavior_a_ = std::make_unique<SpinBehavior>(this);
  behavior_b_ = std::make_unique<SpinBehavior>(this);
  prober_a_ = kernel_->CreateTask("vtop-" + std::to_string(cpu_a_) + "-" + std::to_string(cpu_b_),
                                  TaskPolicy::kNormal, behavior_a_.get(), CpuMask::Single(cpu_a_));
  prober_b_ = kernel_->CreateTask("vtop-" + std::to_string(cpu_b_) + "-" + std::to_string(cpu_a_),
                                  TaskPolicy::kNormal, behavior_b_.get(), CpuMask::Single(cpu_b_));
  prober_a_->set_exempt_all_bans(true);
  prober_b_->set_exempt_all_bans(true);
  kernel_->StartTask(prober_a_);
  kernel_->StartTask(prober_b_);
  kernel_->WakeTask(prober_a_);
  kernel_->WakeTask(prober_b_);
  OnVcpuStateChanged(started_at_);  // arms the timer if the probers already run
}

bool PairProbe::ProberRunning(const GuestVcpu* vcpu, const Task* prober) const {
  return vcpu != nullptr && prober != nullptr && vcpu->active() && vcpu->current() == prober;
}

bool PairProbe::CachedStateIsLive() const {
  return a_running_ == ProberRunning(vcpu_a_, prober_a_) &&
         b_running_ == ProberRunning(vcpu_b_, prober_b_);
}

void PairProbe::OnVcpuStateChanged(TimeNs now) {
  // Every grid point before `now` ran in the cached state, and so did the
  // point at `now` once its band slot has passed (the timer would already
  // have fired there this instant).
  int64_t last = (now - started_at_) / config_.sample_quantum;
  if (GridPoint(last) == now && sim_->TimerStillFiresAt(sample_timer_, now)) {
    --last;
  }
  ElideSamples(last - next_sample_ + 1);
  a_running_ = ProberRunning(vcpu_a_, prober_a_);
  b_running_ = ProberRunning(vcpu_b_, prober_b_);
  ArmSampleTimer();
  if (audit::Enabled()) {
    AuditVerify();
  }
}

void PairProbe::OnVcpuDetached(int index) {
  // The guest is being torn down mid-probe: forget both vCPUs (the other
  // one is still alive, or it would have detached us first) and never
  // sample a dead kernel.
  GuestVcpu* other = index == cpu_a_ ? vcpu_b_ : vcpu_a_;
  if (other != nullptr) {
    other->RemoveWatcher(this);
  }
  vcpu_a_ = nullptr;
  vcpu_b_ = nullptr;
  a_running_ = false;
  b_running_ = false;
  sim_->CancelTimer(sample_timer_);
}

void PairProbe::StopWatching() {
  if (vcpu_a_ != nullptr) {
    vcpu_a_->RemoveWatcher(this);
    vcpu_b_->RemoveWatcher(this);
    vcpu_a_ = nullptr;
    vcpu_b_ = nullptr;
    a_running_ = false;
    b_running_ = false;
  }
}

void PairProbe::ElideSamples(int64_t n) {
  if (n <= 0) {
    return;
  }
  // Both-running points always run as real samples (they draw the RNG).
  VSCHED_CHECK(!(a_running_ && b_running_));
  if (a_running_ != b_running_) {
    attempts_ += static_cast<double>(n) * attempts_per_sample_;
    // The timer sits on the timeout crossing, so elision never reaches it.
    VSCHED_CHECK(attempts_ < current_timeout_);
  }
  next_sample_ += n;
  PerfCounters::Current()->probe_samples_elided += static_cast<uint64_t>(n);
}

int64_t PairProbe::SamplesToTimeout() const {
  // attempts_, current_timeout_ and the per-sample step are exact integers.
  const auto remaining = static_cast<int64_t>(current_timeout_ - attempts_);
  const auto step = static_cast<int64_t>(attempts_per_sample_);
  return std::max<int64_t>(1, (remaining + step - 1) / step);
}

TimeNs PairProbe::SampleDeadline() const {
  if (done_reported_ || vcpu_a_ == nullptr) {
    return kTimeInfinity;
  }
  if (poll_every_sample_ || (a_running_ && b_running_)) {
    return GridPoint(next_sample_);
  }
  if (a_running_ || b_running_) {
    return GridPoint(next_sample_ + SamplesToTimeout() - 1);
  }
  return kTimeInfinity;
}

void PairProbe::ArmSampleTimer() {
  const TimeNs when = SampleDeadline();
  if (when == kTimeInfinity) {
    sim_->CancelTimer(sample_timer_);
  } else if (sim_->wheel().ArmedAt(sample_timer_) != when) {
    sim_->ArmTimerAt(sample_timer_, when);
  }
}

void PairProbe::AuditVerify() const {
  if (!audit::Enabled()) {
    return;
  }
  VSCHED_AUDIT_CHECK(CachedStateIsLive(), "pair probe missed a vCPU state change");
  VSCHED_AUDIT_CHECK(sim_->wheel().ArmedAt(sample_timer_) == SampleDeadline(),
                     "pair probe sample timer is off its deadline (disarmed while neither "
                     "prober runs, the timeout grid point while one spins, the next grid "
                     "point while both run)");
}

void PairProbe::Sample() {
  const TimeNs now = sim_->now();
  const int64_t k = (now - started_at_) / config_.sample_quantum;
  VSCHED_CHECK(GridPoint(k) == now && k >= next_sample_);
  // Nothing changed since the timer was armed, so it fired where the cached
  // state put it.
  VSCHED_AUDIT_CHECK(CachedStateIsLive(), "pair probe missed a vCPU state change");
  VSCHED_AUDIT_CHECK(SampleDeadline() == now, "pair probe sampled off its deadline");
  ElideSamples(k - next_sample_);
  next_sample_ = k + 1;
  // The sample itself reads the live vCPUs, as the polling oracle does, so a
  // missed notification shows up as a byte difference against it.
  a_running_ = ProberRunning(vcpu_a_, prober_a_);
  b_running_ = ProberRunning(vcpu_b_, prober_b_);

  double quantum = static_cast<double>(config_.sample_quantum);
  if (a_running_ && b_running_) {
    // Both probers execute: the line ping-pongs at the hardware latency of
    // the two vCPUs' current hardware threads.
    double lat = kernel_->machine()->topology().CacheLatencyNs(vcpu_a_->thread()->tid(),
                                                               vcpu_b_->thread()->tid());
    double jitter = 1.0 + config_.noise * (kernel_->rng().NextDouble() * 2.0 - 1.0);
    double observed = lat * jitter;
    FaultInjector* injector = kernel_->fault_injector();
    bool dropped = false;
    if (injector != nullptr) {
      // vsched-lint: allow(fault-injection-point) — registered kPairLatency site
      if (injector->DropSample(ProbePoint::kPairLatency)) {
        dropped = true;  // the transfers of this quantum are lost
        ++samples_dropped_;
      } else {
        // vsched-lint: allow(fault-injection-point) — registered kPairLatency site
        observed = injector->CorruptSample(ProbePoint::kPairLatency, observed);
      }
    }
    if (!dropped) {
      ++samples_kept_;
      min_latency_seen_ = std::min(min_latency_seen_, observed);
      if (config_.robust.enabled && observations_.size() < kMaxObservations) {
        observations_.push_back(observed);
      }
      transfers_ += quantum / lat;
    }
    attempts_ += attempts_per_sample_;
  } else if (a_running_ || b_running_) {
    // One prober spins while the other is inactive or preempted.
    attempts_ += attempts_per_sample_;
  }

  if (transfers_ >= config_.target_transfers) {
    Finish(min_latency_seen_);
    return;
  }
  if (attempts_ >= current_timeout_) {
    if (transfers_ >= config_.min_transfers_for_latency) {
      // Few-but-enough transfers: the lowest observed latency is reliable.
      Finish(min_latency_seen_);
      return;
    }
    if (extensions_ < config_.max_extensions) {
      ++extensions_;
      current_timeout_ *= 2;  // Extend: maybe the vCPUs simply never overlapped yet.
    } else if (transfers_ >= 1.0) {
      // Stacked vCPUs can NEVER run simultaneously: any successful transfer
      // disproves stacking, however rarely the pair overlaps.
      Finish(min_latency_seen_);
      return;
    } else {
      Finish(kInfiniteLatency);  // Stacked: they can never run simultaneously.
      return;
    }
  }
  ArmSampleTimer();
  if (audit::Enabled()) {
    AuditVerify();
  }
}

void PairProbe::Finish(double latency) {
  VSCHED_CHECK(!done_reported_);
  done_reported_ = true;
  StopWatching();
  sim_->CancelTimer(sample_timer_);
  if (config_.robust.enabled && latency != kInfiniteLatency && !observations_.empty()) {
    // Median instead of minimum: a handful of corrupted-low observations
    // would otherwise make any pair look like SMT siblings.
    std::vector<double> sorted = observations_;
    std::sort(sorted.begin(), sorted.end());
    latency = sorted[(sorted.size() - 1) / 2];
  }
  // Let the spin tasks exit at their next burst boundary; stop demanding CPU.
  PairProbeResult result;
  result.cpu_a = cpu_a_;
  result.cpu_b = cpu_b_;
  result.latency_ns = latency;
  if (samples_dropped_ > 0) {
    result.confidence = static_cast<double>(samples_kept_) /
                        static_cast<double>(samples_kept_ + samples_dropped_);
  }
  result.transfers = transfers_;
  result.duration = sim_->now() - started_at_;
  result.extensions = extensions_;
  if (done_) {
    done_(result);
  }
}

}  // namespace vsched
