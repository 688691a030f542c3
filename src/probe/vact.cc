#include "src/probe/vact.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/fault/fault_injector.h"
#include "src/guest/guest_kernel.h"
#include "src/sim/simulation.h"

namespace vsched {

Vact::Vact(GuestKernel* kernel, VactConfig config)
    : kernel_(kernel), sim_(kernel->sim()), config_(config) {
  int n = kernel_->num_vcpus();
  heartbeat_.assign(n, 0);
  last_tick_steal_.assign(n, 0);
  became_active_at_.assign(n, 0);
  window_preempts_.assign(n, 0);
  last_window_preempts_.assign(n, 0);
  window_start_steal_.assign(n, 0);
  window_drops_.assign(n, 0);
  window_ticks_.assign(n, 0);
  for (int i = 0; i < n; ++i) {
    latency_ema_.push_back(Ema::WithHalfLife(config_.ema_half_life_windows));
    active_period_ema_.push_back(Ema::WithHalfLife(config_.ema_half_life_windows));
    confidence_.emplace_back(config_.robust.confidence_window);
  }
}

void Vact::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  kernel_->AddTickListener(this);
  TimeNs now = sim_->now();
  window_start_ = now;
  for (int i = 0; i < kernel_->num_vcpus(); ++i) {
    window_start_steal_[i] = kernel_->vcpu(i).StealClock(now);
    last_tick_steal_[i] = window_start_steal_[i];
    heartbeat_[i] = now;
    became_active_at_[i] = now;
  }
  window_event_ = sim_->After(
      config_.update_interval, [this, alive = std::weak_ptr<const bool>(alive_)] {
        if (alive.expired()) {
          return;
        }
        OnWindowEnd();
      });
}

Vact::~Vact() { kernel_->RemoveTickListener(this); }

void Vact::Stop() {
  running_ = false;
  kernel_->RemoveTickListener(this);
  // Cancel rather than let the event fire into a possibly-destroyed prober
  // (fleet tenants tear their whole stack down mid-simulation). EventIds are
  // generation-tagged, so cancelling an already-fired event is a no-op.
  sim_->Cancel(window_event_);
}

void Vact::OnTick(GuestVcpu* v, TimeNs now) {
  int cpu = v->index();
  heartbeat_[cpu] = now;
  ++window_ticks_[cpu];
  FaultInjector* injector = kernel_->fault_injector();
  // vsched-lint: allow(fault-injection-point) — registered kVactTick site
  if (injector != nullptr && injector->DropSample(ProbePoint::kVactTick)) {
    // The tick ran (heartbeat updated) but its steal reading was lost; the
    // jump accumulates into the next surviving tick.
    ++window_drops_[cpu];
    return;
  }
  TimeNs steal = v->StealClock(now);
  TimeNs jump = steal - last_tick_steal_[cpu];
  last_tick_steal_[cpu] = steal;
  if (jump >= config_.steal_jump_threshold) {
    ++window_preempts_[cpu];
    // The vCPU was preempted for (approximately) `jump` and has just been
    // rescheduled: record the state change.
    became_active_at_[cpu] = now;
  }
}

void Vact::OnWindowEnd() {
  if (!running_) {
    return;
  }
  TimeNs now = sim_->now();
  double window = static_cast<double>(now - window_start_);
  median_latency_dirty_ = true;  // the loop below feeds latency_ema_
  for (int i = 0; i < kernel_->num_vcpus(); ++i) {
    TimeNs steal_now = kernel_->vcpu(i).StealClock(now);
    double steal = static_cast<double>(steal_now - window_start_steal_[i]);
    window_start_steal_[i] = steal_now;
    int preempts = window_preempts_[i];
    last_window_preempts_[i] = preempts;
    window_preempts_[i] = 0;
    bool updated = false;
    bool subthreshold = false;
    if (preempts > 0) {
      latency_ema_[i].Add(steal / preempts);
      active_period_ema_[i].Add(std::max(0.0, window - steal) / preempts);
      updated = true;
    } else if (steal >= 0.95 * window) {
      // Inactive essentially the whole window (no tick ever ran): the
      // latency is at least the window length.
      latency_ema_[i].Add(window);
      updated = true;
    } else if (steal <= 0.01 * window) {
      // Effectively dedicated in this window.
      latency_ema_[i].Add(0.0);
      active_period_ema_[i].Add(window);
      updated = true;
    } else if (config_.robust.enabled &&
               steal >= config_.robust.subthreshold_steal_frac * window) {
      // Sub-threshold theft: substantial steal with zero qualified jumps can
      // only come from per-tick slices below the jump threshold — the
      // cycle-stealer signature. Attribute the steal to one slice per
      // surviving tick so the estimate tracks the theft instead of going
      // stale, and score the window as suspicious.
      const int slices = std::max(1, window_ticks_[i] - window_drops_[i]);
      latency_ema_[i].Add(steal / slices);
      active_period_ema_[i].Add(std::max(0.0, window - steal) / slices);
      updated = true;
      subthreshold = true;
      ++subthreshold_windows_;
    }
    // Otherwise: mixed window without qualified jumps; keep the estimate.
    if (config_.robust.enabled) {
      int drops = window_drops_[i];
      int survivors = window_ticks_[i] - drops;
      if (subthreshold) {
        // Counted above; the data is self-consistent but the pattern is
        // adversarial — depress confidence so the degradation paths (IVH
        // pause, BVS fallback) engage while the theft persists.
        confidence_[i].RecordRejected();
      } else if (drops > survivors) {
        // Most tick samples were lost this window: the preempt count (and
        // hence any estimate derived from it) rests on starved data, however
        // the window ended up classified.
        confidence_[i].RecordDropped();
      } else if (updated) {
        confidence_[i].RecordAccepted();
      } else if (drops > 0) {
        confidence_[i].RecordDropped();
      } else {
        confidence_[i].RecordRejected();  // stale: mixed window, no update
      }
    }
    window_drops_[i] = 0;
    window_ticks_[i] = 0;
  }
  ++windows_completed_;
  window_start_ = now;
  window_event_ = sim_->After(
      config_.update_interval, [this, alive = std::weak_ptr<const bool>(alive_)] {
        if (alive.expired()) {
          return;
        }
        OnWindowEnd();
      });
}

double Vact::LatencyOf(int cpu) const {
  VSCHED_CHECK(cpu >= 0 && cpu < static_cast<int>(latency_ema_.size()));
  return latency_ema_[cpu].has_value() ? latency_ema_[cpu].value() : 0.0;
}

double Vact::ActivePeriodOf(int cpu) const {
  return active_period_ema_[cpu].has_value() ? active_period_ema_[cpu].value()
                                             : static_cast<double>(config_.update_interval);
}

double Vact::MedianLatency() const {
  if (!median_latency_dirty_) {
    return median_latency_;
  }
  std::vector<double> v;
  for (const Ema& e : latency_ema_) {
    if (e.has_value()) {
      v.push_back(e.value());
    }
  }
  if (v.empty()) {
    median_latency_ = 0.0;
  } else {
    std::sort(v.begin(), v.end());
    median_latency_ = v[(v.size() - 1) / 2];
  }
  median_latency_dirty_ = false;
  return median_latency_;
}

double Vact::ConfidenceOf(int cpu) const {
  VSCHED_CHECK(cpu >= 0 && cpu < static_cast<int>(confidence_.size()));
  if (!config_.robust.enabled) {
    return 1.0;
  }
  return confidence_[cpu].confidence();
}

double Vact::MedianConfidence() const {
  if (!config_.robust.enabled) {
    return 1.0;
  }
  std::vector<double> scores;
  scores.reserve(confidence_.size());
  for (const ConfidenceTracker& t : confidence_) {
    scores.push_back(t.confidence());
  }
  if (scores.empty()) {
    return 1.0;
  }
  std::sort(scores.begin(), scores.end());
  return scores[(scores.size() - 1) / 2];
}

VcpuStateView Vact::QueryState(int cpu) const {
  VcpuStateView view;
  TimeNs now = sim_->now();
  TimeNs staleness = now - heartbeat_[cpu];
  TimeNs limit = config_.inactive_after_ticks * kernel_->params().tick_period;
  if (staleness > limit) {
    view.inactive = true;
    view.since = heartbeat_[cpu];
  } else {
    view.inactive = false;
    view.since = became_active_at_[cpu];
  }
  return view;
}

}  // namespace vsched
