// DriverHost: lifecycle manager for one untrusted driver process
// (Section 4.1: start, kill -9, restart, setrlimit, sched_setscheduler).
//
// A host owns the simulated process (own UID), the UmlRuntime and the driver
// instance. Start binds the SUD device context to the process and runs the
// driver's probe; Kill models `kill -9` — the process dies mid-whatever and
// the kernel reclaims everything via SudDeviceContext::Teardown; Restart
// starts a fresh driver instance against a re-bound context, demonstrating
// that recovery needs nothing beyond process machinery.
//
// Ownership: driver code for uchan shard q runs only on the thread holding
// q's owner token, as driver code runs only in the driver process's own
// sud_wait loop (§3.1). Start and Kill hold every token while they swap the
// driver or reclaim the device. The modes differ in who holds the tokens:
//  * pumped (default): Pump(), or a kernel-side caller blocked on the
//    driver, claims every shard without blocking (or none) and drains them
//    — deterministic, used by tests and benches;
//  * threaded-per-queue: one std::thread per shard, holding its own token
//    for life — real concurrency, and the multi-queue scaling configuration,
//    where the packet path shares no lock between queues;
//  * comatose: the process exists but nothing ever services its uchan.

#ifndef SUD_SRC_UML_DRIVER_HOST_H_
#define SUD_SRC_UML_DRIVER_HOST_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/kern/kernel.h"
#include "src/sud/safe_pci.h"
#include "src/uml/uml_runtime.h"

namespace sud::uml {

class DriverHost {
 public:
  // kComatose models a driver process stuck in an infinite loop: it exists,
  // holds its resources, but never services its uchan.
  enum class Mode { kPumped, kThreadedPerQueue, kComatose };

  DriverHost(kern::Kernel* kernel, SudDeviceContext* ctx, std::string name, kern::Uid uid);
  ~DriverHost();

  DriverHost(const DriverHost&) = delete;
  DriverHost& operator=(const DriverHost&) = delete;

  // Spawns the process, binds the device, probes the driver.
  // Start/Kill/Restart serialize on a lifecycle mutex: the supervisor's
  // watchdog thread and an administrator Kill may race, and exactly one
  // must win with the other seeing a consistent before-or-after state.
  Status Start(std::unique_ptr<Driver> driver, Mode mode = Mode::kPumped);

  // kill -9: stop the thread (if any), mark the process dead, tear down the
  // device context. The driver gets no chance to clean up — that is the point.
  Status Kill();

  // Restart with a fresh driver instance (usually the same type).
  Status Restart(std::unique_ptr<Driver> driver, Mode mode = Mode::kPumped);

  // The pumped step, also the uchan's driver-step hook: claims every shard
  // without blocking and, in pumped mode, drains their pending upcalls.
  // Returns whether it ran the driver — false if any shard has another owner
  // (including this thread's own enclosing dispatch).
  bool Pump();

  bool running() const { return running_; }
  Mode mode() const { return mode_; }
  // Dispatch threads currently running: one per shard in threaded-per-queue
  // mode, 0 otherwise.
  size_t thread_count() const { return threads_.size(); }
  kern::Process* process() { return process_; }
  UmlRuntime* runtime() { return runtime_.get(); }
  Driver* driver() { return driver_.get(); }
  // The device context (stable across restarts — owned by the SafePciModule).
  SudDeviceContext* ctx() { return ctx_; }

  // Watchdog-safe snapshots: each takes the lifecycle lock, so a supervisor
  // thread can sample them while another thread kills or restarts the host
  // (runtime_ and the uchan shards are replaced under that same lock).
  // All return 0 when the host is not running.
  uint64_t queue_progress(uint16_t queue) const;
  uint64_t pending_upcalls(uint16_t queue) const;
  uint32_t pool_outstanding() const;

 private:
  struct OwnerToken {
    std::mutex mu;
    std::atomic<std::thread::id> holder{};
  };

  void QueueThreadLoop(uint16_t queue);
  Status StartLocked(std::unique_ptr<Driver> driver, Mode mode);
  Status KillLocked();
  // Claims tokens [first, first + count): blocking, or all-or-none without.
  // A token this thread already holds is never claimed again.
  bool Claim(uint16_t first, uint16_t count, bool block);
  void Release(uint16_t first, uint16_t count);

  kern::Kernel* kernel_;
  SudDeviceContext* ctx_;
  std::string name_;
  kern::Uid uid_;
  kern::Process* process_ = nullptr;
  std::unique_ptr<UmlRuntime> runtime_;
  std::unique_ptr<Driver> driver_;
  std::vector<std::thread> threads_;  // one per shard (kThreadedPerQueue)
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  Mode mode_ = Mode::kPumped;  // written only while holding every token
  std::array<OwnerToken, kSudMaxQueues> owners_;
  // Serializes Start/Kill/Restart (supervisor recovery vs concurrent admin
  // kill) and the watchdog snapshots; driver code never runs under it.
  mutable std::mutex lifecycle_mu_;
};

}  // namespace sud::uml

#endif  // SUD_SRC_UML_DRIVER_HOST_H_
