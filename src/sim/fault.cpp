#include "sim/fault.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/error.h"
#include "core/random.h"

namespace apt {

bool LinkFault::ActiveAt(double t) const {
  if (t < start_s || t >= end_s) return false;
  if (flap_period_s <= 0.0) return true;
  // Phase within the current flap period, anchored at the fault's start so
  // the first `flap_duty` fraction of the window is always degraded.
  const double phase = std::fmod(t - start_s, flap_period_s) / flap_period_s;
  return phase < flap_duty;
}

bool FaultPlan::AnyDegradationAt(double t) const {
  for (const StragglerFault& s : stragglers) {
    if (s.ActiveAt(t)) return true;
  }
  for (const LinkFault& l : links) {
    // A flapping fault counts as degradation anywhere inside its window:
    // re-planning cares about the window, not the instantaneous phase.
    if (t >= l.start_s && t < l.end_s) return true;
  }
  return false;
}

FaultPlan FaultPlan::WithoutCollectiveFaults() const {
  FaultPlan p = *this;
  p.collectives.clear();
  return p;
}

std::string FaultPlan::Describe() const {
  std::ostringstream os;
  for (const StragglerFault& s : stragglers) {
    os << "straggler dev=" << s.device << " [" << s.start_s << "," << s.end_s
       << ")s x" << s.slowdown << "\n";
  }
  for (const LinkFault& l : links) {
    os << "link class=" << l.link_class << " [" << l.start_s << "," << l.end_s
       << ")s bw_factor=" << l.bandwidth_factor << " +lat=" << l.extra_latency_s;
    if (l.flap_period_s > 0.0) {
      os << " flap=" << l.flap_period_s << "s duty=" << l.flap_duty;
    }
    os << "\n";
  }
  for (const CollectiveFault& c : collectives) {
    os << "collective fail after " << c.after_bytes << " bytes\n";
  }
  return os.str();
}

FaultPlan RandomFaultPlan(std::uint64_t seed, const ClusterSpec& cluster,
                          double horizon_s, double intensity) {
  APT_CHECK_GT(horizon_s, 0.0);
  APT_CHECK(intensity > 0.0 && intensity <= 1.0) << "intensity " << intensity;
  Rng rng(seed);
  FaultPlan plan;
  const auto count = [&](double max_per_kind) {
    return static_cast<int>(std::llround(max_per_kind * intensity *
                                         (0.5 + rng.NextDouble())));
  };
  const std::int32_t c = cluster.num_devices();

  const int n_strag = count(2.0);
  for (int i = 0; i < n_strag; ++i) {
    StragglerFault s;
    s.device = static_cast<DeviceId>(rng.NextBelow(static_cast<std::uint64_t>(c)));
    s.start_s = rng.NextDouble() * horizon_s * 0.5;
    s.end_s = s.start_s + (0.1 + rng.NextDouble() * 0.8) * horizon_s;
    s.slowdown = 1.5 + rng.NextDouble() * 4.0;
    plan.stragglers.push_back(s);
  }

  const int n_link = count(2.0);
  for (int i = 0; i < n_link; ++i) {
    LinkFault l;
    // Cross-machine faults only make sense on multi-machine clusters.
    l.link_class = cluster.num_machines() > 1
                       ? static_cast<int>(rng.NextBelow(3))
                       : static_cast<int>(rng.NextBelow(2));
    l.start_s = rng.NextDouble() * horizon_s * 0.5;
    l.end_s = l.start_s + (0.1 + rng.NextDouble() * 0.8) * horizon_s;
    l.bandwidth_factor = 0.05 + rng.NextDouble() * 0.75;
    l.extra_latency_s = rng.NextDouble() * 1e-4;
    if (rng.NextDouble() < 0.5) {
      l.flap_period_s = horizon_s * (0.01 + rng.NextDouble() * 0.05);
      l.flap_duty = 0.2 + rng.NextDouble() * 0.6;
    }
    plan.links.push_back(l);
  }

  const int n_coll = count(1.5);
  for (int i = 0; i < n_coll; ++i) {
    CollectiveFault f;
    // Thresholds spread over a plausible per-epoch collective volume.
    f.after_bytes = static_cast<std::int64_t>(rng.NextDouble() * 64e6);
    plan.collectives.push_back(f);
  }
  std::sort(plan.collectives.begin(), plan.collectives.end(),
            [](const CollectiveFault& a, const CollectiveFault& b) {
              return a.after_bytes < b.after_bytes;
            });
  return plan;
}

}  // namespace apt
