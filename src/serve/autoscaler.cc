#include "serve/autoscaler.h"

#include <algorithm>
#include <cmath>

#include "common/clock.h"
#include "common/logging.h"

namespace ray {
namespace serve {

Autoscaler::Autoscaler(Router* router, const AutoscalerConfig& config)
    : router_(router),
      config_(config),
      ticker_(config_.tick_us, [this] { Evaluate(NowMicros()); }) {}

void Autoscaler::Stop() { ticker_.Stop(); }

void Autoscaler::Evaluate(int64_t now) {
  int healthy = router_->NumHealthyReplicas();
  int total = router_->NumReplicas();
  // Floor first: capacity lost to a node kill is restored even when the
  // metrics blob is stale (the router may be too busy failing over to
  // publish on time). Count starting replicas (total includes them) so one
  // breach doesn't stack creations tick after tick while they come up.
  if (total < config_.min_replicas) {
    if (now - last_up_us_ >= config_.up_cooldown_us) {
      for (int i = total; i < config_.min_replicas; ++i) {
        router_->AddReplica();
        scale_ups_.Add();
      }
      last_up_us_ = now;
      last_target_.store(config_.min_replicas, std::memory_order_relaxed);
    }
    return;
  }
  auto blob = router_->cluster().tables().serve.GetMetrics(router_->config().group);
  if (!blob.ok()) {
    return;  // router has not published yet
  }
  ServeMetrics m = ServeMetrics::Deserialize(*blob);
  if (now - m.published_us > config_.metrics_stale_us) {
    return;
  }
  double service_s = std::max(1.0, m.service_ema_us) / 1e6;
  // Demand the group should absorb: what it served plus what it shed.
  double demand_qps = m.window_qps + m.window_shed_per_s;
  int capacity_target = static_cast<int>(
      std::ceil(demand_qps * service_s / std::max(0.05, config_.target_utilization)));
  int target = std::clamp(capacity_target, config_.min_replicas, config_.max_replicas);

  bool trustworthy_p99 = m.window_completed >= config_.min_window_samples;
  bool slo_breached = trustworthy_p99 && m.window_p99_us > static_cast<double>(config_.slo_us);
  bool shedding = m.window_shed_per_s > 0.5;
  if (slo_breached || shedding) {
    // Latency is the symptom, capacity the cure: force at least one more
    // replica than we have even if the utilization math disagrees.
    target = std::clamp(std::max(target, healthy + 1), config_.min_replicas,
                        config_.max_replicas);
  }
  last_target_.store(target, std::memory_order_relaxed);

  if (target > total) {
    if (now - last_up_us_ < config_.up_cooldown_us) {
      return;
    }
    for (int i = total; i < target; ++i) {
      router_->AddReplica();
      scale_ups_.Add();
    }
    last_up_us_ = now;
    return;
  }
  if (target < healthy) {
    // Scale down one at a time, only when comfortably under the SLO and
    // under-utilized, behind the long cooldown.
    double util = demand_qps * service_s / std::max(1, healthy);
    bool comfortable = trustworthy_p99
                           ? m.window_p99_us <
                                 config_.scale_down_p99_fraction * static_cast<double>(config_.slo_us)
                           : m.window_qps < 1.0;  // idle group: no samples is comfort enough
    if (comfortable && util < config_.scale_down_utilization &&
        now - last_down_us_ >= config_.down_cooldown_us &&
        now - last_up_us_ >= config_.down_cooldown_us) {
      router_->RemoveReplica();
      scale_downs_.Add();
      last_down_us_ = now;
    }
  }
}

}  // namespace serve
}  // namespace ray
