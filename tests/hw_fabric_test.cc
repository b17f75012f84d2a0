// Fabric-level unit tests: physical memory, PCI config space, BAR
// assignment, DMA routing through switches and the root complex, ACS
// behaviour, the MSI controller, and Machine assembly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/hw/machine.h"

namespace sud::hw {
namespace {

// A trivial device: one 4 KB MMIO BAR backed by a register array, plus an
// IO BAR, used to probe fabric mechanics without NIC complexity.
class ScratchDevice : public PciDevice {
 public:
  explicit ScratchDevice(std::string name)
      : PciDevice(std::move(name), 0x1234, 0x5678, 0xff,
                  {BarDesc{4096, false}, BarDesc{32, true}}) {}

  uint32_t MmioRead(int bar, uint64_t offset) override {
    if (bar != 0 || offset + 4 > sizeof(regs_)) {
      return 0xffffffffu;
    }
    return LoadLe32(regs_ + offset);
  }
  void MmioWrite(int bar, uint64_t offset, uint32_t value) override {
    if (bar == 0 && offset + 4 <= sizeof(regs_)) {
      StoreLe32(regs_ + offset, value);
    }
  }
  uint8_t IoRead(uint16_t port_offset) override {
    return port_offset < sizeof(io_regs_) ? io_regs_[port_offset] : 0xff;
  }
  void IoWrite(uint16_t port_offset, uint8_t value) override {
    if (port_offset < sizeof(io_regs_)) {
      io_regs_[port_offset] = value;
    }
  }

  // Test helpers to issue DMA from "firmware".
  Status TestDmaWrite(uint64_t addr, ConstByteSpan data) { return DmaWrite(addr, data); }
  Status TestDmaRead(uint64_t addr, ByteSpan out) { return DmaRead(addr, out); }
  Status TestRaiseMsi() { return RaiseMsi(); }

 private:
  uint8_t regs_[4096] = {};
  uint8_t io_regs_[32] = {};
};

TEST(PhysicalMemory, ReadWriteRoundTrip) {
  PhysicalMemory dram(1 << 20);
  uint8_t data[16] = {1, 2, 3, 4};
  ASSERT_TRUE(dram.Write(0x1000, {data, 16}).ok());
  uint8_t out[16] = {};
  ASSERT_TRUE(dram.Read(0x1000, {out, 16}).ok());
  EXPECT_EQ(memcmp(data, out, 16), 0);
}

TEST(PhysicalMemory, BoundsChecked) {
  PhysicalMemory dram(1 << 20);
  uint8_t data[16] = {};
  EXPECT_FALSE(dram.Write((1 << 20) - 8, {data, 16}).ok());
  EXPECT_FALSE(dram.Read((1 << 20), {data, 16}).ok());
}

TEST(PhysicalMemory, AllocatorFindsRunsAndFrees) {
  PhysicalMemory dram(16 * kPageSize);
  Result<uint64_t> a = dram.AllocPages(4);
  Result<uint64_t> b = dram.AllocPages(4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(dram.allocated_pages(), 8u);
  // Exhaustion.
  EXPECT_FALSE(dram.AllocPages(16).ok());
  dram.FreePages(a.value(), 4);
  dram.FreePages(b.value(), 4);
  EXPECT_EQ(dram.allocated_pages(), 0u);
  EXPECT_TRUE(dram.AllocPages(16).ok());
}

// The reference model for the allocator: first fit by a one-page-at-a-time
// scan from page 0. PhysicalMemory must return the same address for every
// call sequence.
class ScanAllocator {
 public:
  explicit ScanAllocator(uint64_t pages) : used_(pages, false) {}

  Result<uint64_t> AllocPages(uint64_t num_pages) {
    if (num_pages == 0) {
      return Status(ErrorCode::kInvalidArgument, "zero-page allocation");
    }
    uint64_t run = 0;
    for (uint64_t i = 0; i < used_.size(); ++i) {
      run = used_[i] ? 0 : run + 1;
      if (run == num_pages) {
        uint64_t first = i + 1 - num_pages;
        for (uint64_t j = first; j <= i; ++j) {
          used_[j] = true;
        }
        allocated_ += num_pages;
        return first * kPageSize;
      }
    }
    return Status(ErrorCode::kExhausted, "out of physical pages");
  }

  void FreePages(uint64_t paddr, uint64_t num_pages) {
    uint64_t first = paddr / kPageSize;
    for (uint64_t j = first; j < first + num_pages && j < used_.size(); ++j) {
      if (used_[j]) {
        used_[j] = false;
        --allocated_;
      }
    }
  }

  uint64_t allocated_pages() const { return allocated_; }

 private:
  std::vector<bool> used_;
  uint64_t allocated_ = 0;
};

// Drives PhysicalMemory and ScanAllocator with one call sequence and checks
// they agree on every result and on allocated_pages() after every step.
class AllocPair {
 public:
  explicit AllocPair(uint64_t pages) : dram_(pages * kPageSize), model_(pages) {}

  Result<uint64_t> Alloc(uint64_t num_pages) {
    Result<uint64_t> got = dram_.AllocPages(num_pages);
    Result<uint64_t> want = model_.AllocPages(num_pages);
    EXPECT_EQ(got.ok(), want.ok()) << "AllocPages(" << num_pages << ") step " << step_;
    if (got.ok() && want.ok()) {
      EXPECT_EQ(got.value(), want.value()) << "AllocPages(" << num_pages << ") step " << step_;
    } else {
      EXPECT_EQ(got.status().code(), want.status().code()) << "step " << step_;
    }
    Check();
    return want;
  }

  void Free(uint64_t paddr, uint64_t num_pages) {
    dram_.FreePages(paddr, num_pages);
    model_.FreePages(paddr, num_pages);
    Check();
  }

  uint64_t allocated_pages() const { return model_.allocated_pages(); }

 private:
  void Check() {
    EXPECT_EQ(dram_.allocated_pages(), model_.allocated_pages()) << "step " << step_;
    ++step_;
  }

  PhysicalMemory dram_;
  ScanAllocator model_;
  uint64_t step_ = 0;
};

class AllocatorEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorEquivalenceTest, MatchesFirstFitScan) {
  struct Run {
    uint64_t paddr;
    uint64_t pages;
  };
  // 200 and 1000 pages are not multiples of the 64-page bitmap word; 1 and
  // 64 are the smallest one-word cases.
  for (uint64_t total : {1u, 64u, 200u, 1000u}) {
    SCOPED_TRACE("pages=" + std::to_string(total));
    Rng rng(GetParam() ^ total);
    AllocPair pair(total);

    // A run that ends on the last page, then exhaustion at every size.
    if (total > 5) {
      pair.Alloc(total - 5);
      Result<uint64_t> tail = pair.Alloc(5);
      ASSERT_TRUE(tail.ok());
      EXPECT_EQ(tail.value(), (total - 5) * kPageSize);
    } else {
      pair.Alloc(total);
    }
    pair.Alloc(1);
    pair.Alloc(0);
    pair.Free(0, total);
    ASSERT_EQ(pair.allocated_pages(), 0u);

    std::vector<Run> live;
    for (int step = 0; step < 4000 && !::testing::Test::HasFailure(); ++step) {
      uint64_t op = rng.Below(100);
      if (op < 50 || live.empty()) {
        // Mostly small runs, sometimes up to 80 pages: both cross word
        // boundaries, and the mix fragments DRAM and exhausts it.
        uint64_t pages = rng.Chance(1, 2) ? rng.Between(1, 4) : rng.Between(1, 80);
        Result<uint64_t> paddr = pair.Alloc(pages);
        if (paddr.ok()) {
          live.push_back({paddr.value(), pages});
        }
        continue;
      }
      size_t pick = rng.Below(live.size());
      Run run = live[pick];
      if (op < 80) {
        // Free a live run whole; a quarter of the time free it again.
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        pair.Free(run.paddr, run.pages);
        if (rng.Chance(1, 4)) {
          pair.Free(run.paddr, run.pages);
        }
      } else if (op < 92) {
        // Free part of a live run (possibly from an unaligned address inside
        // its first page); what is left on either side stays live.
        uint64_t skip = rng.Below(run.pages);
        uint64_t len = rng.Between(1, run.pages - skip);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        pair.Free(run.paddr + skip * kPageSize + rng.Below(kPageSize), len);
        if (skip > 0) {
          live.push_back({run.paddr, skip});
        }
        if (skip + len < run.pages) {
          live.push_back({run.paddr + (skip + len) * kPageSize, run.pages - skip - len});
        }
      } else {
        // Out of range: past the end, straddling the end, and a length that
        // wraps. None of these may free a page that is not in DRAM.
        switch (rng.Below(3)) {
          case 0:
            pair.Free((total + rng.Below(100)) * kPageSize, rng.Between(1, 80));
            break;
          case 1:
            // The live run holding the last page loses it; freeing that run
            // later is then in part a double free.
            pair.Free((total - 1) * kPageSize, rng.Between(2, 80));
            break;
          default:
            pair.Free(run.paddr, ~uint64_t{0});
            break;
        }
      }
    }
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorEquivalenceTest, ::testing::Values(1, 42, 2024));

TEST(PciConfig, VendorDeviceAndCapabilities) {
  PciConfigSpace config(0x8086, 0x10d3, 0x02);
  EXPECT_EQ(config.vendor_id(), 0x8086);
  EXPECT_EQ(config.device_id(), 0x10d3);
  // Capability pointer leads to the MSI capability.
  uint8_t cap = static_cast<uint8_t>(config.Read(kPciCapPointer, 1));
  EXPECT_EQ(cap, kMsiCapOffset);
  EXPECT_EQ(config.Read(cap, 1), kMsiCapId);
}

TEST(PciConfig, MsiMaskAndAddress) {
  PciConfigSpace config(1, 2, 3);
  EXPECT_FALSE(config.msi_enabled());
  config.set_msi_address(0xFEE00000ull);
  config.set_msi_data(42);
  config.set_msi_enabled(true);
  EXPECT_TRUE(config.msi_enabled());
  EXPECT_EQ(config.msi_address(), 0xFEE00000ull);
  EXPECT_EQ(config.msi_data(), 42);
  EXPECT_FALSE(config.msi_masked());
  config.set_msi_masked(true);
  EXPECT_TRUE(config.msi_masked());
}

TEST(PciConfig, OutOfRangeReadsAllOnes) {
  PciConfigSpace config(1, 2, 3);
  EXPECT_EQ(config.Read(0xfe, 4), 0xffffffffu);
}

TEST(Machine, AssignsAddressesAndBars) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev_a("a"), dev_b("b");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev_a).ok());
  ASSERT_TRUE(machine.AttachDevice(sw, &dev_b).ok());

  EXPECT_NE(dev_a.address().source_id(), dev_b.address().source_id());
  uint64_t bar_a = dev_a.config().bar(0);
  uint64_t bar_b = dev_b.config().bar(0);
  EXPECT_GE(bar_a, kMmioWindowBase);
  EXPECT_NE(bar_a, bar_b);
  EXPECT_TRUE(IsPageAligned(bar_a));
  EXPECT_TRUE(IsPageAligned(bar_b));
  // IO BARs distinct too.
  EXPECT_NE(dev_a.config().bar(1), dev_b.config().bar(1));
}

TEST(Machine, MmioRoutesToOwningDevice) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  dev.config().set_command(kPciCommandMemEnable);

  uint64_t bar = dev.config().bar(0);
  machine.MmioWrite32(bar + 0x10, 0xabcd1234);
  EXPECT_EQ(machine.MmioRead32(bar + 0x10), 0xabcd1234u);
  // Unclaimed address: master abort.
  EXPECT_EQ(machine.MmioRead32(kMmioWindowBase - 0x1000), 0xffffffffu);
}

TEST(Machine, MmioRespectsMemEnable) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  uint64_t bar = dev.config().bar(0);
  machine.MmioWrite32(bar, 0x1111);                 // mem decode off: dropped
  EXPECT_EQ(machine.MmioRead32(bar), 0xffffffffu);  // and reads abort
  dev.config().set_command(kPciCommandMemEnable);
  machine.MmioWrite32(bar, 0x1111);
  EXPECT_EQ(machine.MmioRead32(bar), 0x1111u);
}

TEST(Machine, IoPortsRouteAndRespectIoEnable) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  uint16_t base = static_cast<uint16_t>(dev.config().bar(1));
  machine.IoPortWrite(base + 3, 0x7e);             // io decode off
  EXPECT_EQ(machine.IoPortRead(base + 3), 0xff);
  dev.config().set_command(kPciCommandIoEnable);
  machine.IoPortWrite(base + 3, 0x7e);
  EXPECT_EQ(machine.IoPortRead(base + 3), 0x7e);
  EXPECT_EQ(machine.IoPortOwner(base + 3), &dev);
  EXPECT_EQ(machine.IoPortOwner(0x60), nullptr);
}

TEST(Fabric, DmaRequiresBusMaster) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  ASSERT_TRUE(machine.iommu().CreateContext(dev.address().source_id()).ok());
  ASSERT_TRUE(machine.iommu()
                  .Map(dev.address().source_id(), 0x10000, 0x4000, kPageSize, true, true)
                  .ok());
  uint8_t data[4] = {1, 2, 3, 4};
  EXPECT_EQ(dev.TestDmaWrite(0x10000, {data, 4}).code(), ErrorCode::kPermissionDenied);
  dev.config().set_command(kPciCommandBusMaster);
  EXPECT_TRUE(dev.TestDmaWrite(0x10000, {data, 4}).ok());
  EXPECT_EQ(machine.dram().Read32(0x4000), 0x04030201u);
}

TEST(Fabric, DmaSplitsPageCrossingBursts) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  dev.config().set_command(kPciCommandBusMaster);
  uint16_t src = dev.address().source_id();
  ASSERT_TRUE(machine.iommu().CreateContext(src).ok());
  // Two virtually-contiguous pages mapped to *discontiguous* frames.
  ASSERT_TRUE(machine.iommu().Map(src, 0x10000, 0x8000, kPageSize, true, true).ok());
  ASSERT_TRUE(machine.iommu().Map(src, 0x11000, 0xa000, kPageSize, true, true).ok());

  std::vector<uint8_t> data(256);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  // Burst crossing the page boundary at 0x11000.
  ASSERT_TRUE(dev.TestDmaWrite(0x10f80, {data.data(), data.size()}).ok());
  std::vector<uint8_t> lo(128), hi(128);
  ASSERT_TRUE(machine.dram().Read(0x8f80, {lo.data(), lo.size()}).ok());
  ASSERT_TRUE(machine.dram().Read(0xa000, {hi.data(), hi.size()}).ok());
  EXPECT_EQ(memcmp(lo.data(), data.data(), 128), 0);
  EXPECT_EQ(memcmp(hi.data(), data.data() + 128, 128), 0);
}

TEST(Fabric, MsiRangeIsNotReadable) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  dev.config().set_command(kPciCommandBusMaster);
  uint8_t out[4];
  EXPECT_FALSE(dev.TestDmaRead(kMsiRangeBase, {out, 4}).ok());
}

TEST(Fabric, MsiDeliveryThroughConfigCapability) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  dev.config().set_command(kPciCommandBusMaster);
  dev.config().set_msi_address(kMsiRangeBase);
  dev.config().set_msi_data(55);
  dev.config().set_msi_enabled(true);

  int delivered_vector = -1;
  machine.msi().set_handler([&](uint8_t vector, uint16_t) { delivered_vector = vector; });
  ASSERT_TRUE(dev.TestRaiseMsi().ok());
  EXPECT_EQ(delivered_vector, 55);
  EXPECT_EQ(machine.msi().delivered(55), 1u);
}

TEST(Fabric, MaskedMsiPendsAndFiresOnUnmask) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  dev.config().set_command(kPciCommandBusMaster);
  dev.config().set_msi_address(kMsiRangeBase);
  dev.config().set_msi_data(56);
  dev.config().set_msi_enabled(true);
  dev.config().set_msi_masked(true);

  int count = 0;
  machine.msi().set_handler([&](uint8_t, uint16_t) { ++count; });
  ASSERT_TRUE(dev.TestRaiseMsi().ok());
  EXPECT_EQ(count, 0);
  EXPECT_TRUE(dev.msi_pending());
  dev.config().set_msi_masked(false);
  ASSERT_TRUE(dev.FirePendingMsi().ok());
  EXPECT_EQ(count, 1);
}

TEST(Fabric, DisabledMsiDropsInterrupt) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  dev.config().set_command(kPciCommandBusMaster);
  int count = 0;
  machine.msi().set_handler([&](uint8_t, uint16_t) { ++count; });
  ASSERT_TRUE(dev.TestRaiseMsi().ok());  // MSI disabled: silently dropped
  EXPECT_EQ(count, 0);
  EXPECT_FALSE(dev.msi_pending());
}

TEST(Acs, PeerWriteDeliveredWhenOff) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice attacker("attacker"), victim("victim");
  ASSERT_TRUE(machine.AttachDevice(sw, &attacker).ok());
  ASSERT_TRUE(machine.AttachDevice(sw, &victim).ok());
  attacker.config().set_command(kPciCommandBusMaster);
  victim.config().set_command(kPciCommandMemEnable);

  uint64_t victim_bar = victim.config().bar(0);
  uint8_t payload[4] = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(attacker.TestDmaWrite(victim_bar + 0x40, {payload, 4}).ok());
  EXPECT_EQ(victim.MmioRead(0, 0x40), 0xefbeaddeu);
  EXPECT_EQ(sw.p2p_deliveries(), 1u);
}

TEST(Acs, PeerWriteRedirectedAndFaultedWhenOn) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  sw.set_acs({true, true});
  ScratchDevice attacker("attacker"), victim("victim");
  ASSERT_TRUE(machine.AttachDevice(sw, &attacker).ok());
  ASSERT_TRUE(machine.AttachDevice(sw, &victim).ok());
  attacker.config().set_command(kPciCommandBusMaster);
  victim.config().set_command(kPciCommandMemEnable);
  ASSERT_TRUE(machine.iommu().CreateContext(attacker.address().source_id()).ok());

  uint64_t victim_bar = victim.config().bar(0);
  uint8_t payload[4] = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(attacker.TestDmaWrite(victim_bar + 0x40, {payload, 4}).code(),
            ErrorCode::kIommuFault);
  EXPECT_EQ(victim.MmioRead(0, 0x40), 0u);
  EXPECT_EQ(sw.p2p_deliveries(), 0u);
}

TEST(Acs, SourceValidationBlocksSpoofing) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  sw.set_acs({true, true});
  ScratchDevice dev("dev"), other("other");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  ASSERT_TRUE(machine.AttachDevice(sw, &other).ok());
  dev.config().set_command(kPciCommandBusMaster);
  dev.set_spoofed_source_id(other.address().source_id());

  uint8_t data[4] = {};
  EXPECT_EQ(dev.TestDmaWrite(0x4000, {data, 4}).code(), ErrorCode::kAcsBlocked);
  EXPECT_EQ(sw.blocked_by_source_validation(), 1u);
}

}  // namespace
}  // namespace sud::hw
