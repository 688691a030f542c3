// Declarative chaos schedules for deterministic fault injection.
//
// A FaultPlan names a set of host-side perturbation classes (steal bursts,
// stressor storms, frequency droops, bandwidth jitter, probe-sample chaos)
// with Poisson arrival rates and duration ranges. The plan is pure data; the
// FaultInjector turns it into concrete seeded events, so the same
// (seed, plan) pair always replays byte-identically.
#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <string>
#include <vector>

#include "src/adversary/adversary_spec.h"
#include "src/base/time.h"

namespace vsched {

// Poisson arrival process: interventions arrive with exponential gaps of
// mean 1/rate_per_sec, each lasting uniform [min_duration, max_duration].
// rate_per_sec == 0 disables the class.
struct FaultArrivalSpec {
  double rate_per_sec = 0.0;
  TimeNs min_duration = 0;
  TimeNs max_duration = 0;

  bool active() const { return rate_per_sec > 0.0; }
};

// A host RT task lands on a random hardware thread and monopolises it for
// the burst duration — the straggler-maker of PAPER.md §2.3 (Figure 4 left).
struct StealBurstSpec {
  FaultArrivalSpec arrival;
  double weight = 4096.0;
  bool rt = true;
};

// A batch of duty-cycled CFS stressors arrives at once on random hardware
// threads (co-tenant arrival storm, §5.8 transient interference).
struct StressorStormSpec {
  FaultArrivalSpec arrival;
  int min_stressors = 2;
  int max_stressors = 6;
  TimeNs duty_on = MsToNs(3);
  TimeNs duty_off = MsToNs(1);
};

// DVFS droop: a random core's frequency multiplier is scaled down for the
// duration, then restored.
struct FreqDroopSpec {
  FaultArrivalSpec arrival;
  double min_multiplier = 0.5;
  double max_multiplier = 0.9;
};

// CFS-bandwidth jitter: a random vCPU's quota is scaled (or, for an
// uncapped vCPU, a cap of scale×imposed_period is imposed) for the
// duration, then restored.
struct BandwidthJitterSpec {
  FaultArrivalSpec arrival;
  double min_scale = 0.3;
  double max_scale = 0.8;
  TimeNs imposed_period = MsToNs(100);
};

// Probe-sample chaos, applied at the registered injection points: a sample
// is dropped with drop_probability, else corrupted (scaled by up to
// corrupt_factor in either direction) with corrupt_probability.
struct ProbeChaosSpec {
  double drop_probability = 0.0;
  double corrupt_probability = 0.0;
  double corrupt_factor = 3.0;

  bool active() const { return drop_probability > 0.0 || corrupt_probability > 0.0; }
};

// Adversarial co-tenant attacks (strategic, not merely noisy) ride in the
// plan as an AdversarySpec; the specs and their drivers live in
// src/adversary/ (see adversary_spec.h for the taxonomy).

struct FaultPlan {
  std::string name;

  // Injection is quiescent before `start` and (when horizon > 0) after
  // start + horizon; interventions in flight at the horizon still end.
  TimeNs start = 0;
  TimeNs horizon = 0;

  StealBurstSpec steal;
  StressorStormSpec storm;
  FreqDroopSpec droop;
  BandwidthJitterSpec bandwidth;
  ProbeChaosSpec probe;
  AdversarySpec adversary;

  bool Empty() const {
    return !steal.arrival.active() && !storm.arrival.active() && !droop.arrival.active() &&
           !bandwidth.arrival.active() && !probe.active() && !adversary.active();
  }
};

// Canned plans, addressable from the CLI (`--fault-plan`). "none" is the
// empty plan. Returns false when `name` is unknown.
bool LookupFaultPlan(const std::string& name, FaultPlan* out);

// Names of all canned plans, in a fixed order ("none" first).
std::vector<std::string> FaultPlanNames();

}  // namespace vsched

#endif  // SRC_FAULT_FAULT_PLAN_H_
