// PeriodicThread: the one background-loop model for periodic control-plane
// work (heartbeats, the failure-detector sweep, chaos ticks, serving ticks
// and autoscaling, the hang watchdog). It owns an OS thread that runs
//
//   while (!WaitForStop(interval)) tick();
//
// Every cadence is fixed-delay: the next deadline is taken after `tick`
// returns. The wait goes through CondVar::WaitUntilMicros, the hookable time
// seam, in the thread's clock domain — so a node's heartbeat can run on a
// skewed clock (chaos) without the rest of the node seeing it, and a later
// move onto fiber timers or virtual time touches only this file.
//
// Event loops that wake on a queue (GCS flusher, pub-sub workers,
// PullManager, SimNetwork completion, the Router event loop) are not
// periodic and do not use this class.
#ifndef RAY_COMMON_PERIODIC_THREAD_H_
#define RAY_COMMON_PERIODIC_THREAD_H_

#include <cstdint>
#include <functional>
#include <thread>

#include "common/sync.h"

namespace ray {

class PeriodicThread {
 public:
  // Starts the thread at once. `tick` first runs one `interval_us` after
  // construction, on the thread, with CurrentClockDomain() == clock_domain.
  PeriodicThread(int64_t interval_us, std::function<void()> tick, uint32_t clock_domain = 0);
  ~PeriodicThread() { Stop(); }

  PeriodicThread(const PeriodicThread&) = delete;
  PeriodicThread& operator=(const PeriodicThread&) = delete;

  // Wakes the wait at once and joins. Idempotent; once it returns, `tick`
  // never runs again. Must not be called from inside `tick`.
  void Stop();

 private:
  // Waits one interval; true when Stop() was called instead.
  bool WaitForStop(int64_t interval_us);

  Mutex mu_{"PeriodicThread.mu"};
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  Mutex join_mu_{"PeriodicThread.join_mu"};  // serialises concurrent Stop()s
  std::thread thread_;
};

}  // namespace ray

#endif  // RAY_COMMON_PERIODIC_THREAD_H_
