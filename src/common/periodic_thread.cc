#include "common/periodic_thread.h"

#include <utility>

#include "common/clock.h"
#include "common/dst.h"

namespace ray {

PeriodicThread::PeriodicThread(int64_t interval_us, std::function<void()> tick,
                               uint32_t clock_domain)
    : thread_([this, interval_us, tick = std::move(tick), clock_domain] {
        dst::SetCurrentClockDomain(clock_domain);
        while (!WaitForStop(interval_us)) {
          tick();
        }
      }) {}

void PeriodicThread::Stop() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  MutexLock join(join_mu_);
  if (thread_.joinable()) {
    thread_.join();
  }
}

bool PeriodicThread::WaitForStop(int64_t interval_us) {
  const int64_t deadline_us = NowMicros() + interval_us;
  MutexLock lock(mu_);
  while (!stop_) {
    if (!cv_.WaitUntilMicros(mu_, deadline_us)) {
      break;  // interval elapsed
    }
  }
  return stop_;
}

}  // namespace ray
