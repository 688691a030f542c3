#include "src/sim/simulation.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace vsched {

void Simulation::RunUntil(TimeNs deadline) {
  const TimeNs before = queue_.now();
  // Interleave the two backends. At equal timestamps the timer band fires
  // first (tw <= limit includes tw == tq), so periodic timers always
  // precede heap events at their instant — in both tickless modes, which is
  // what keeps the heap's sequence-number stream mode-invariant.
  for (;;) {
    const TimeNs tq = queue_.NextEventTime();
    const TimeNs limit = std::min(tq, deadline);
    const TimeNs tw = wheel_.NextDeadlineAtMost(limit);
    if (tw <= limit) {
      queue_.AdvanceClockTo(tw);
      ++events_dispatched_;
      if (event_budget_ != 0 && events_dispatched_ > event_budget_) {
        throw SimBudgetExceeded(event_budget_);
      }
      wheel_.RunOne(tw);
      if (audit::Enabled()) {
        wheel_.AuditVerify();
      }
      continue;
    }
    if (tq > deadline) {
      break;
    }
    band_closed_at_ = tq;
    ++events_dispatched_;
    if (event_budget_ != 0 && events_dispatched_ > event_budget_) {
      throw SimBudgetExceeded(event_budget_);
    }
    queue_.RunOne();
  }
  queue_.AdvanceClockTo(deadline);
  // Every timer due at `deadline` has fired, so its band is closed: code
  // that runs after RunUntil returns at this instant (a sharded fleet's
  // barrier phase, a runner between windows) must see a resumed periodic
  // timer's slot here as already passed, exactly as a timer that never
  // stopped would have fired it inside this call.
  band_closed_at_ = deadline;
  VSCHED_AUDIT_CHECK(queue_.now() >= before, "simulation clock moved backwards");
  VSCHED_AUDIT_CHECK(deadline <= before || queue_.now() == deadline,
                     "RunUntil did not land on its deadline");
}

Simulation::PeriodicHandle* Simulation::Every(TimeNs period, std::function<void()> fn) {
  VSCHED_CHECK(period > 0);
  auto handle = std::make_unique<PeriodicHandle>(this, period, std::move(fn));
  PeriodicHandle* raw = handle.get();
  periodic_handles_.push_back(std::move(handle));
  // PeriodicHandle is Simulation-owned (periodic_handles_) and outlives every
  // timer the simulation can fire, so the raw capture cannot dangle.
  // vsched-lint: allow(event-lifetime)
  raw->timer_ = CreateTimer([raw] {
    if (raw->cancelled_) {
      return;
    }
    raw->fn_();
    if (!raw->cancelled_) {
      raw->sim_->ArmTimerAfter(raw->timer_, raw->period_);
    }
  });
  ArmTimerAfter(raw->timer_, period);
  return raw;
}

void Simulation::CancelPeriodic(PeriodicHandle* handle) {
  handle->cancelled_ = true;
  wheel_.Cancel(handle->timer_);
}

}  // namespace vsched
