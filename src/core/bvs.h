// Biased vCPU selection (bvs, §3.2).
//
// A wake-placement hook that matches small latency-sensitive tasks with
// vCPUs minimizing the extended runqueue latency, following the Figure 8
// heuristic: consider only high-capacity vCPUs; an empty-queue vCPU is
// acceptable when it has low vCPU latency and prolonged idleness; a
// sched_idle-only vCPU is acceptable when it is long-inactive with low
// latency (about to be rescheduled) or just became active (the task can run
// immediately within the remaining active period). First fit wins; if no
// vCPU qualifies, placement falls back to the CFS heuristic.
#ifndef SRC_CORE_BVS_H_
#define SRC_CORE_BVS_H_

#include "src/core/config.h"
#include "src/guest/kernel_hooks.h"

namespace vsched {

class GuestKernel;
class GuestVcpu;
class Vact;
class Vcap;

class Bvs : public WakePlacement {
 public:
  Bvs(GuestKernel* kernel, Vcap* vcap, Vact* vact, BvsConfig config = BvsConfig{});
  // Uninstalls itself if it is still the kernel's placement.
  ~Bvs() override;

  Bvs(const Bvs&) = delete;
  Bvs& operator=(const Bvs&) = delete;

  // Installs this as the kernel's wake placement.
  void Install();

  // WakePlacement (public for tests): returns the chosen vCPU or -1.
  int SelectVcpu(Task* task, int prev_cpu, int waker_cpu) override;

  // Degraded mode: probe confidence is too low to trust the latency-based
  // placement, so every selection falls back to the CFS heuristic (-1).
  void set_degraded(bool degraded) { degraded_ = degraded; }
  bool degraded() const { return degraded_; }

  uint64_t placements() const { return placements_; }
  uint64_t fallbacks() const { return fallbacks_; }

 private:
  // The Figure 8 test for one placement-idle vCPU (see
  // GuestKernel::placement_idle_mask()).
  bool AcceptableVcpu(const GuestVcpu& v, double median_cap, double median_lat);

  GuestKernel* kernel_;
  Vcap* vcap_;
  Vact* vact_;
  BvsConfig config_;
  bool degraded_ = false;
  uint64_t placements_ = 0;
  uint64_t fallbacks_ = 0;
  int rotor_ = 0;
};

}  // namespace vsched

#endif  // SRC_CORE_BVS_H_
