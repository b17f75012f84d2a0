#include "src/uml/driver_host.h"

#include "src/base/log.h"

namespace sud::uml {

DriverHost::DriverHost(kern::Kernel* kernel, SudDeviceContext* ctx, std::string name,
                       kern::Uid uid)
    : kernel_(kernel), ctx_(ctx), name_(std::move(name)), uid_(uid) {}

DriverHost::~DriverHost() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_) {
    (void)KillLocked();
  }
}

Status DriverHost::Start(std::unique_ptr<Driver> driver, Mode mode) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  return StartLocked(std::move(driver), mode);
}

Status DriverHost::StartLocked(std::unique_ptr<Driver> driver, Mode mode) {
  if (running_) {
    return Status(ErrorCode::kAlreadyExists, name_ + " already running");
  }
  process_ = &kernel_->processes().Spawn(name_, uid_);
  SUD_RETURN_IF_ERROR(ctx_->Bind(process_));
  const uint16_t queues = static_cast<uint16_t>(ctx_->num_queues());
  (void)Claim(0, queues, /*block=*/true);
  runtime_ = std::make_unique<UmlRuntime>(kernel_, ctx_, process_);
  driver_ = std::move(driver);
  mode_ = mode;
  running_ = true;
  ctx_->ctl().set_driver_step([this]() { return Pump(); });

  Status probed = driver_->Probe(*runtime_);
  Release(0, queues);
  if (!probed.ok()) {
    SUD_LOG(kWarning) << name_ << ": probe failed: " << probed.ToString();
    (void)KillLocked();
    return probed;
  }

  if (mode == Mode::kThreadedPerQueue) {
    stop_requested_ = false;
    for (uint16_t q = 0; q < queues; ++q) {
      threads_.emplace_back([this, q]() { QueueThreadLoop(q); });
    }
  }
  SUD_LOG(kInfo) << name_ << ": driver " << driver_->name() << " started (pid "
                 << process_->pid() << ")";
  return Status::Ok();
}

void DriverHost::QueueThreadLoop(uint16_t queue) {
  // This thread owns shard `queue` for its whole life: it only ever touches
  // queue-`queue` state (its ring pair, its rx array, its descriptor rings),
  // so the packet path scales across queues without a shared lock.
  (void)Claim(queue, 1, /*block=*/true);
  while (!stop_requested_) {
    (void)runtime_->RunOnceQueue(queue, /*timeout_ms=*/5);
  }
  Release(queue, 1);
}

Status DriverHost::Kill() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  return KillLocked();
}

Status DriverHost::KillLocked() {
  if (!running_) {
    return Status(ErrorCode::kUnavailable, name_ + " not running");
  }
  stop_requested_ = true;
  for (uint16_t q = 0; q < ctx_->num_queues(); ++q) {
    ctx_->ctl(q).Shutdown();  // unblocks threads asleep in WaitBatch
  }
  for (std::thread& thread : threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
  threads_.clear();
  // A step in progress on another thread finishes before anything goes.
  const uint16_t queues = static_cast<uint16_t>(ctx_->num_queues());
  (void)Claim(0, queues, /*block=*/true);
  (void)kernel_->processes().Kill(process_->pid());
  ctx_->Teardown();  // the kernel reclaims every granted resource
  running_ = false;
  runtime_.reset();
  driver_.reset();
  Release(0, queues);
  SUD_LOG(kInfo) << name_ << ": killed and reclaimed";
  return Status::Ok();
}

Status DriverHost::Restart(std::unique_ptr<Driver> driver, Mode mode) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_) {
    SUD_RETURN_IF_ERROR(KillLocked());
  }
  return StartLocked(std::move(driver), mode);
}

bool DriverHost::Claim(uint16_t first, uint16_t count, bool block) {
  const std::thread::id self = std::this_thread::get_id();
  for (uint16_t q = first; q < first + count; ++q) {
    OwnerToken& token = owners_[q];
    // A thread inside shard q's dispatch never claims q again, so it never
    // re-enters the driver.
    bool taken = token.holder.load(std::memory_order_relaxed) != self;
    if (taken && block) {
      token.mu.lock();
    } else if (taken) {
      taken = token.mu.try_lock();
    }
    if (!taken) {
      Release(first, q - first);
      return false;
    }
    token.holder.store(self, std::memory_order_relaxed);
  }
  return true;
}

void DriverHost::Release(uint16_t first, uint16_t count) {
  for (uint16_t q = first; q < first + count; ++q) {
    owners_[q].holder.store(std::thread::id(), std::memory_order_relaxed);
    owners_[q].mu.unlock();
  }
}

bool DriverHost::Pump() {
  const uint16_t queues = static_cast<uint16_t>(ctx_->num_queues());
  if (!Claim(0, queues, /*block=*/false)) {
    return false;
  }
  // Comatose drivers never service their uchan (that is the point), and in
  // threaded mode each shard belongs to its own thread.
  bool ran = running_ && mode_ == Mode::kPumped;
  if (ran) {
    runtime_->ProcessPending();
  }
  Release(0, queues);
  return ran;
}

uint64_t DriverHost::queue_progress(uint16_t queue) const {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!running_ || runtime_ == nullptr) {
    return 0;
  }
  return runtime_->queue_progress(queue);
}

uint64_t DriverHost::pending_upcalls(uint16_t queue) const {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!running_ || queue >= ctx_->num_queues()) {
    return 0;
  }
  return ctx_->ctl(queue).pending_upcalls();
}

uint32_t DriverHost::pool_outstanding() const {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!running_) {
    return 0;
  }
  return ctx_->pool().outstanding();
}

}  // namespace sud::uml
