#include "src/core/vsched.h"

#include <algorithm>
#include <vector>

#include "src/guest/guest_kernel.h"
#include "src/sim/simulation.h"

namespace vsched {

VSched::VSched(GuestKernel* kernel, VSchedOptions options)
    : kernel_(kernel), options_(options) {
  if (options_.robust.enabled) {
    // One switch arms the whole robustness layer: every prober screens its
    // samples and reports confidence.
    options_.vcap.robust = options_.robust;
    options_.vact.robust = options_.robust;
    options_.vtop.robust = options_.robust;
  }
  if (options_.use_vcap) {
    vcap_ = std::make_unique<Vcap>(kernel_, options_.vcap);
  }
  if (options_.use_vact) {
    vact_ = std::make_unique<Vact>(kernel_, options_.vact);
  }
  if (options_.use_vtop) {
    vtop_ = std::make_unique<Vtop>(kernel_, options_.vtop);
  }
  if (options_.use_rwc && vcap_ != nullptr) {
    rwc_ = std::make_unique<Rwc>(kernel_, vcap_.get(), options_.rwc);
  }
  if (options_.use_bvs && vcap_ != nullptr && vact_ != nullptr) {
    bvs_ = std::make_unique<Bvs>(kernel_, vcap_.get(), vact_.get(), options_.bvs);
  }
  if (options_.use_ivh && vcap_ != nullptr && vact_ != nullptr) {
    ivh_ = std::make_unique<Ivh>(kernel_, vcap_.get(), vact_.get(), options_.ivh);
  }
}

VSched::~VSched() { Stop(); }

void VSched::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  if (vcap_ != nullptr) {
    // The bridge: publish probed EMA capacities into the kernel after each
    // sampling window (per-vCPU data update, §4). The degradation check runs
    // first so a confidence collapse takes effect in the same window.
    vcap_->AddWindowCallback([this](TimeNs, TimeNs, bool) {
      EvaluateDegradation();
      PublishCapacities();
    });
  }
  if (rwc_ != nullptr) {
    rwc_->Install();
  }
  if (vtop_ != nullptr) {
    // The bridge: rebuild schedule domains on every published topology —
    // unless topology confidence is shot, in which case the documented
    // fallback is topology-agnostic (flat UMA) domains.
    vtop_->SetTopologyCallback([this](const GuestTopology& topo) {
      EvaluateDegradation();
      if (options_.robust.enabled && degradation_.IsDegraded(DegradedComponent::kTopology)) {
        kernel_->RebuildSchedDomains(GuestTopology::FlatUma(kernel_->num_vcpus()));
      } else {
        kernel_->RebuildSchedDomains(topo);
      }
      if (rwc_ != nullptr) {
        rwc_->OnTopology(topo);
      }
    });
  }
  if (bvs_ != nullptr) {
    bvs_->Install();
  }
  if (ivh_ != nullptr) {
    ivh_->Install();
  }
  if (vcap_ != nullptr) {
    vcap_->Start();
  }
  if (vact_ != nullptr) {
    vact_->Start();
  }
  if (vtop_ != nullptr) {
    vtop_->Start();
  }
}

void VSched::Stop() {
  if (!started_) {
    return;
  }
  started_ = false;
  if (vcap_ != nullptr) {
    vcap_->Stop();
  }
  if (vact_ != nullptr) {
    vact_->Stop();
  }
  if (vtop_ != nullptr) {
    vtop_->Stop();
  }
}

void VSched::PublishCapacities() {
  const bool pessimistic =
      options_.robust.enabled && degradation_.IsDegraded(DegradedComponent::kCapacity);
  const double median = pessimistic ? vcap_->MedianCapacity() : 0.0;
  std::vector<double> caps(static_cast<size_t>(kernel_->num_vcpus()));
  for (int i = 0; i < kernel_->num_vcpus(); ++i) {
    double cap = vcap_->CapacityOf(i);
    if (pessimistic && vcap_->ConfidenceOf(i) < options_.robust.low_confidence) {
      // Pessimistic fallback: never advertise an untrusted vCPU as stronger
      // than the median — overestimating capacity piles work onto what may
      // really be a straggler, underestimating merely spreads it.
      if (cap > median) {
        ++pessimistic_publishes_;
      }
      cap = std::min(cap, median);
    } else if (options_.robust.enabled && vcap_->Quarantined(i)) {
      // Quarantined vCPUs already publish the corroborated off-window view
      // (vcap substitutes the sample); count the containment here too.
      ++pessimistic_publishes_;
    }
    caps[static_cast<size_t>(i)] = cap;
  }
  kernel_->SetCapacityOverrides(caps);
}

void VSched::EvaluateDegradation() {
  if (!options_.robust.enabled) {
    return;
  }
  TimeNs now = kernel_->sim()->now();
  const double low = options_.robust.low_confidence;
  const bool cap_bad = vcap_ != nullptr && vcap_->MedianConfidence() < low;
  const bool act_bad = vact_ != nullptr && vact_->MedianConfidence() < low;
  const bool topo_bad = vtop_ != nullptr && vtop_->TopologyConfidence() < low;

  degradation_.SetState(DegradedComponent::kCapacity, cap_bad, now);
  degradation_.SetState(DegradedComponent::kBans, cap_bad, now);
  if (rwc_ != nullptr) {
    rwc_->set_freeze(cap_bad);
  }
  // bvs needs both capacity and latency estimates; either collapsing sends
  // placement back to the CFS heuristic.
  degradation_.SetState(DegradedComponent::kPlacement, cap_bad || act_bad, now);
  if (bvs_ != nullptr) {
    bvs_->set_degraded(cap_bad || act_bad);
  }
  degradation_.SetState(DegradedComponent::kHarvest, act_bad, now);
  if (ivh_ != nullptr) {
    ivh_->set_degraded(act_bad);
  }

  // Anti-evasion quarantine: vcap's duty-cycle plausibility check feeds the
  // per-vCPU quarantine mask; surface it as its own degradation component so
  // chaos/adversary runs can report containment time.
  degradation_.SetState(DegradedComponent::kQuarantine,
                        vcap_ != nullptr && !vcap_->QuarantinedMask().Empty(), now);

  const bool was_topo = degradation_.IsDegraded(DegradedComponent::kTopology);
  degradation_.SetState(DegradedComponent::kTopology, topo_bad, now);
  if (topo_bad != was_topo && vtop_ != nullptr && vtop_->has_topology()) {
    // Transition between probed and topology-agnostic domains happens here;
    // steady-state publishes are handled by the topology callback.
    kernel_->RebuildSchedDomains(topo_bad ? GuestTopology::FlatUma(kernel_->num_vcpus())
                                          : vtop_->probed_topology());
  }
}

}  // namespace vsched
