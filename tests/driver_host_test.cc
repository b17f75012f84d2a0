// DriverHost lifecycle tests: pumped / threaded-per-queue / comatose modes,
// restart semantics, resource reclamation across repeated kill cycles, rlimit
// / scheduling-policy plumbing (§4.1), the runtime's interrupt dispatch
// (one RequestIrq entry, acked per queue even before a handler exists), and
// the owner rule (driver code runs only on the thread holding its shards).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/drivers/malicious.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::NetBench;

TEST(DriverHost, StartProbeFailureTearsDownCleanly) {
  NetBench bench;
  // A driver whose probe fails outright.
  class FailingDriver : public uml::Driver {
   public:
    const char* name() const override { return "failing"; }
    Status Probe(uml::DriverEnv& env) override {
      return Status(ErrorCode::kUnavailable, "no firmware");
    }
  };
  Status status = bench.host->Start(std::make_unique<FailingDriver>());
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(bench.host->running());
  // Everything reclaimed: the device can be started again.
  EXPECT_FALSE(bench.machine.iommu().HasContext(bench.sut_nic.address().source_id()));
  EXPECT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).ok());
}

TEST(DriverHost, DoubleStartRefused) {
  NetBench bench;
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).ok());
  EXPECT_EQ(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).code(),
            ErrorCode::kAlreadyExists);
}

TEST(DriverHost, KillWithoutStartIsAnError) {
  NetBench bench;
  EXPECT_EQ(bench.host->Kill().code(), ErrorCode::kUnavailable);
}

TEST(DriverHost, RepeatedKillRestartCyclesLeakNothing) {
  NetBench bench;
  uint64_t pages_baseline = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).ok());
    if (cycle == 0) {
      pages_baseline = bench.machine.dram().allocated_pages();
    } else {
      // Same footprint every cycle: no leaked DMA pages.
      EXPECT_EQ(bench.machine.dram().allocated_pages(), pages_baseline) << "cycle " << cycle;
    }
    ASSERT_TRUE(bench.host->Kill().ok());
  }
  // After the final kill, only the peer's allocations remain.
  EXPECT_LT(bench.machine.dram().allocated_pages(), pages_baseline);
}

TEST(DriverHost, ThreadedModeServicesUpcalls) {
  NetBench bench;
  ASSERT_TRUE(bench.host
                  ->Start(std::make_unique<drivers::E1000eDriver>(),
                          uml::DriverHost::Mode::kThreadedPerQueue)
                  .ok());
  // A one-queue device gets one pump thread.
  EXPECT_EQ(bench.host->thread_count(), 1u);
  // The open upcall is answered by the driver thread, not a pump.
  Status up = bench.kernel.net().BringUp("eth0");
  EXPECT_TRUE(up.ok()) << up.ToString();

  // Atomic: the sink runs on the driver thread while this thread polls.
  std::atomic<int> received{0};
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb&) { ++received; });
  std::vector<uint8_t> payload(64, 0xaa);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(bench.PeerSend(1, 80, {payload.data(), payload.size()}).ok());
  }
  // Give the driver thread time to drain.
  for (int spin = 0; spin < 100 && received < 5; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received, 5);
  ASSERT_TRUE(bench.host->Kill().ok());
}

TEST(DriverHost, KillUnblocksSleepingThread) {
  NetBench bench;
  ASSERT_TRUE(bench.host
                  ->Start(std::make_unique<drivers::E1000eDriver>(),
                          uml::DriverHost::Mode::kThreadedPerQueue)
                  .ok());
  // The driver thread is asleep in WaitBatch; Kill must join promptly.
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(bench.host->Kill().ok());
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1000);
}

TEST(DriverHost, ComatoseDriverHoldsResourcesUntilKilled) {
  NetBench bench;
  ASSERT_TRUE(bench.host
                  ->Start(std::make_unique<drivers::UnresponsiveDriver>(),
                          uml::DriverHost::Mode::kComatose)
                  .ok());
  // Upcalls pile up unserviced.
  auto frame = kern::BuildPacket(testing::kMacB, testing::kMacA, 1, 2, {});
  for (int i = 0; i < 4; ++i) {
    (void)testing::ProxyXmitOne(*bench.proxy, kern::MakeSkb({frame.data(), frame.size()}));
  }
  EXPECT_GT(bench.ctx->ctl().pending_upcalls(), 0u);
  ASSERT_TRUE(bench.host->Kill().ok());
  EXPECT_TRUE(bench.ctx->ctl().is_shutdown());
}

TEST(DriverHost, RestartSwapsDriverType) {
  NetBench bench;
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).ok());
  // Restart straight into a different (malicious) driver: the §4.1 scenario
  // of an administrator replacing a binary.
  ASSERT_TRUE(bench.host->Restart(std::make_unique<drivers::ConfigAttackDriver>()).ok());
  auto* attack = static_cast<drivers::ConfigAttackDriver*>(bench.host->driver());
  EXPECT_EQ(attack->outcome().succeeded, 0u);
  // And back to the honest one.
  ASSERT_TRUE(bench.host->Restart(std::make_unique<drivers::E1000eDriver>()).ok());
  EXPECT_TRUE(bench.host->running());
}

TEST(DriverHost, ProcessCarriesPolicyAndLimits) {
  NetBench bench;
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).ok());
  kern::Process* proc = bench.host->process();
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->uid(), testing::kDriverUid);
  EXPECT_EQ(proc->sched_policy(), kern::SchedPolicy::kNormal);
  proc->set_sched_policy(kern::SchedPolicy::kFifo);  // sched_setscheduler
  EXPECT_EQ(proc->sched_policy(), kern::SchedPolicy::kFifo);
  // The e1000e's DMA footprint (rings + 16 MB buffers + pool) is charged.
  EXPECT_GT(proc->memory_used(), 16u * 1024 * 1024);
  EXPECT_LE(proc->memory_used(), proc->rlimits().memory_bytes);
}

// A driver that asks for `vectors` interrupt vectors (none when 0) and
// records the queue of every handler call.
class IrqRecordingDriver : public uml::Driver {
 public:
  explicit IrqRecordingDriver(uint16_t vectors) : vectors_(vectors) {}
  const char* name() const override { return "irq-recorder"; }
  Status Probe(uml::DriverEnv& env) override {
    SUD_RETURN_IF_ERROR(env.PciEnableDevice());
    SUD_RETURN_IF_ERROR(env.PciSetMaster());  // MSI writes are bus-master DMA
    if (vectors_ > 0) {
      request_irq = env.RequestIrq(vectors_, [this](uint16_t queue) { handled.push_back(queue); });
    }
    return Status::Ok();
  }

  Status request_irq = Status::Ok();
  std::vector<uint16_t> handled;

 private:
  uint16_t vectors_;
};

NetBench::Options TwoQueues() {
  NetBench::Options options;
  options.nic_queues = 2;
  return options;
}

// The restart window: the process is bound (MSIs forward as upcalls) but
// the driver has not called RequestIrq yet. The runtime must still ack the
// queue the upcall names, or the queue stays in flight and every later MSI
// on it coalesces under a mask that no ack will ever lift.
TEST(DriverHostIrq, UpcallBeforeRequestIrqStillAcksItsQueue) {
  NetBench bench(TwoQueues());
  ASSERT_TRUE(bench.host->Start(std::make_unique<IrqRecordingDriver>(0)).ok());
  const SudDeviceContext::InterruptStats& irq = bench.ctx->interrupt_stats();

  ASSERT_TRUE(bench.sut_nic.RaiseMsi(1).ok());
  EXPECT_EQ(irq.forwarded, 1u);
  bench.host->Pump();  // no handler registered: dispatch only acks queue 1
  EXPECT_EQ(bench.ctx->ctl(1).pending_upcalls(), 0u);

  ASSERT_TRUE(bench.sut_nic.RaiseMsi(1).ok());
  EXPECT_EQ(irq.forwarded, 2u);
  EXPECT_EQ(irq.coalesced, 0u);
  EXPECT_EQ(irq.mask_events, 0u);
  EXPECT_FALSE(bench.sut_nic.config().msi_masked());
  EXPECT_EQ(bench.ctx->ctl(1).pending_upcalls(), 1u);
}

TEST(DriverHostIrq, MoreVectorsThanQueuesIsRefused) {
  NetBench bench(TwoQueues());
  for (uint16_t vectors : {1, 2, 3}) {
    auto driver = std::make_unique<IrqRecordingDriver>(vectors);
    IrqRecordingDriver* recorder = driver.get();
    ASSERT_TRUE(bench.host->Restart(std::move(driver)).ok());
    EXPECT_EQ(recorder->request_irq.code(),
              vectors > 2 ? ErrorCode::kInvalidArgument : ErrorCode::kOk)
        << vectors << " vectors";
  }
}

// A single-vector driver on a two-queue device: its one handler serves
// both queues, called (poll, ack, re-poll) with the queue each upcall names.
TEST(DriverHostIrq, OneVectorHandlerServesEveryQueue) {
  NetBench bench(TwoQueues());
  auto driver = std::make_unique<IrqRecordingDriver>(1);
  IrqRecordingDriver* recorder = driver.get();
  ASSERT_TRUE(bench.host->Start(std::move(driver)).ok());
  ASSERT_TRUE(recorder->request_irq.ok());

  ASSERT_TRUE(bench.sut_nic.RaiseMsi(0).ok());
  ASSERT_TRUE(bench.sut_nic.RaiseMsi(1).ok());
  bench.host->Pump();
  EXPECT_EQ(recorder->handled, (std::vector<uint16_t>{0, 0, 1, 1}));
  EXPECT_EQ(bench.ctx->interrupt_stats().coalesced, 0u);
}

// A network driver whose open and ioctl ops run the test's callbacks, on
// whatever thread dispatches them.
class ScriptedNetDriver : public uml::Driver {
 public:
  const char* name() const override { return "scripted"; }
  Status Probe(uml::DriverEnv& env) override {
    uml::NetDriverOps ops;
    ops.open = [this]() { return open ? open() : Status::Ok(); };
    ops.ioctl = [this](uint32_t cmd) -> Result<std::string> {
      return ioctl ? ioctl(cmd) : Result<std::string>(std::string());
    };
    return env.RegisterNetdev(testing::kMacA, std::move(ops));
  }

  std::function<Status()> open;
  std::function<Result<std::string>(uint32_t)> ioctl;
};

// A kernel-side thread that steps the pumped driver owns it until the step
// returns: Kill on another thread must not reclaim the device under it.
TEST(DriverHostOwnership, KillWaitsForTheStepInProgress) {
  NetBench bench;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  auto driver = std::make_unique<ScriptedNetDriver>();
  driver->open = [&]() {
    entered = true;
    auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!release && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Ok();
  };
  ASSERT_TRUE(bench.host->Start(std::move(driver)).ok());
  const uint16_t source = bench.sut_nic.address().source_id();

  // The open upcall steps the driver on the opener thread, which then blocks
  // inside the driver's open.
  std::thread opener([&]() { (void)bench.kernel.net().BringUp("eth0"); });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!entered && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(entered);
  std::thread killer([&]() { (void)bench.host->Kill(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(bench.machine.iommu().HasContext(source))
      << "Kill reclaimed the device while a step was running the driver";
  EXPECT_TRUE(bench.host->running());

  release = true;
  killer.join();
  opener.join();
  EXPECT_FALSE(bench.host->running());
  EXPECT_FALSE(bench.machine.iommu().HasContext(source));
}

// A sync upcall issued from inside the driver's own dispatch cannot claim
// the shard that dispatch holds, so it never re-enters the driver: it waits
// on the channel and times out at the sync deadline, like any upcall to a
// driver that does not answer.
TEST(DriverHostOwnership, SyncUpcallFromInsideTheDriverNeverReentersIt) {
  NetBench::Options options;
  options.sud.uchan.sync_timeout_ms = 50;
  NetBench bench(options);
  int dispatches = 0;
  int dispatches_at_return = -1;
  Status nested = Status::Ok();
  std::chrono::steady_clock::duration nested_wait{};
  auto driver = std::make_unique<ScriptedNetDriver>();
  driver->ioctl = [&](uint32_t cmd) -> Result<std::string> {
    ++dispatches;
    if (cmd == 1) {
      auto t0 = std::chrono::steady_clock::now();
      nested = bench.proxy->Ioctl(2).status();
      nested_wait = std::chrono::steady_clock::now() - t0;
      dispatches_at_return = dispatches;
    }
    return std::string("ok");
  };
  ASSERT_TRUE(bench.host->Start(std::move(driver)).ok());

  EXPECT_TRUE(bench.proxy->Ioctl(1).ok());
  EXPECT_EQ(dispatches_at_return, 1);
  EXPECT_EQ(nested.code(), ErrorCode::kTimedOut);
  EXPECT_GE(nested_wait, std::chrono::milliseconds(50));
}

}  // namespace
}  // namespace sud
