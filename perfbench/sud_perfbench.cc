// sud_perfbench: the repository benchmark. Runs the SUD stack (simulated
// machine, SUT NIC, e1000e under SUD-UML, uchan, Ethernet proxy, kernel net
// stack) under one closed-loop workload and prints its end-to-end or
// per-layer metrics as one JSON line. perfbench/README.md documents every
// workload and metric; perfbench/run.py builds this binary and drives it.
//
// Traffic enters and leaves at the wire. Received frames go in through
// EtherLink::Transmit(1, ...) into the SUT NIC; transmitted frames land on a
// counting, digesting endpoint attached to link side 1. No peer machine is
// simulated, so none of the measured time is the traffic generator's stack.
//
// Every layer is measured from outside: host time by timing the calls this
// file makes into each layer's public functions (spans, in the traced run
// only), modeled time and counts by diffing the layers' public Stats around
// the timed loop.

#include <time.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/log.h"
#include "tests/harness.h"

namespace sud::perfbench {
namespace {

using testing::kMacA;  // the SUT's MAC
using testing::kMacB;  // the (absent) peer's MAC
using testing::NetBench;

// ---- Figure 8 calibration, copied from bench/fig8_netperf.cc so the modeled
// ---- CPU% is computed exactly as fig8 computes it for the same row shape.
constexpr double kCores = 2.0;
constexpr double kTcpAppNsPerPkt = 1350;
constexpr double kRrClientBaseNs = 98000;
constexpr size_t kTcpMss = 1448;
constexpr size_t kUdpPayload = 64 - 22;
constexpr double kTcpWireBytesPerSeg = 1538;
constexpr size_t kJumboTcpMss = 8948;
constexpr double kJumboTcpWireBytesPerSeg = 9038;
constexpr size_t kJumboHeadBytes = 2048;
constexpr size_t kJumboFragBytes = 2048;

// Closed-loop shapes.
constexpr int kRxBurst = 16;     // rx_stream: frames per Pump (fig8 row 1)
constexpr int kTxBurst = 8;      // tx_jumbo_sealed: skbs per TransmitBatch (fig8 row 12)
// Distinct frames per input pool: payload bytes and flow tuple come from the
// seed, and the loop cycles through the pool.
constexpr size_t kPoolFrames = 64;
constexpr int kWarmupIterations = 200;
// tx_jumbo_sealed transmits at most this many frames per SUT instance. Its
// TX grants take IOVAs from DmaSpace's bump allocator, which never recycles
// them and does not skip the MSI window at 0xfee00000: after about 386,000
// frames on one device context the grants land in that window and the device
// drops 129 frames. The cap keeps every run short of that point; the
// sealed_tx_long_run self-test runs past it and fails until DmaSpace is fixed.
constexpr uint64_t kSealedTxFrameCap = 320000;
// Preallocated so peak RSS does not grow with the iteration count.
constexpr size_t kMaxLatencySamples = size_t{4} << 20;
constexpr size_t kTraceSpanCapacity = size_t{1} << 20;
// The timed loop runs as this many equal slices. Latency percentiles are the
// medians of the per-slice percentiles, so a burst of host interference in
// one slice does not move them; the traced run alternates untraced and
// traced slices.
constexpr int kSlices = 10;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Order-independent frame digest: FNV-1a over the wire frame, zero-padded to
// the Ethernet minimum and to whole 64-bit words (one multiply per word keeps
// the digest cheap next to the stack it checks). Generator and receiver sum
// these, so delivery order never matters but any corrupted, lost, duplicated
// or substituted frame does.
uint64_t FrameDigest(ConstByteSpan frame) {
  size_t len = std::max(frame.size(), devices::kEthMinFrame);
  uint64_t hash = 0xcbf29ce484222325ull ^ len;
  for (size_t off = 0; off < len; off += 8) {
    uint64_t word = 0;
    if (off < frame.size()) {
      std::memcpy(&word, frame.data() + off, std::min<size_t>(8, frame.size() - off));
    }
    hash ^= word;
    hash *= 0x100000001b3ull;
  }
  return hash ^ (hash >> 29);
}

// Counts and digests every frame delivered to it.
struct FrameCounter {
  uint64_t frames = 0;
  uint64_t digest = 0;
  void Add(ConstByteSpan frame) {
    digest += FrameDigest(frame);
    ++frames;
  }
};

// The far end of the wire: what the SUT transmits lands here.
struct WireSink : devices::EtherEndpoint {
  FrameCounter counter;
  void DeliverFrame(ConstByteSpan frame) override { counter.Add(frame); }
};

// ---- Spans -----------------------------------------------------------------

enum SpanKind : uint8_t { kIter, kBuild, kAlloc, kInject, kTransmit, kPump, kKinds };
// Span name, and the layer its self time is attributed to.
constexpr const char* kSpanName[kKinds] = {"iteration", "build", "alloc",
                                           "inject",    "transmit", "pump"};
constexpr const char* kSpanLayer[kKinds] = {"bench.loop",   "bench.gen", "hw.phys_mem",
                                            "devices.link", "kern.net",  "uml.host"};
constexpr uint32_t kNoSpan = UINT32_MAX;

struct Span {
  int64_t start_ns;
  int64_t end_ns;
  uint32_t parent;
  uint32_t iteration;  // the burst or transaction id
  SpanKind kind;
};

// In-memory span recorder. Disabled, Begin/End cost one branch; enabled, the
// buffer is preallocated and a run stops once it is nearly full.
class Tracer {
 public:
  void Enable(bool on) {
    if (on && spans_.capacity() < kTraceSpanCapacity) {
      spans_.reserve(kTraceSpanCapacity);
    }
    enabled_ = on;
  }
  bool enabled() const { return enabled_; }
  bool nearly_full() const { return spans_.size() + 64 > kTraceSpanCapacity; }
  const std::vector<Span>& spans() const { return spans_; }

  uint32_t Begin(SpanKind kind, uint32_t parent, uint32_t iteration) {
    if (!enabled_) {
      return kNoSpan;
    }
    spans_.push_back(Span{NowNs(), 0, parent, iteration, kind});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t span) {
    if (span != kNoSpan) {
      spans_[span].end_ns = NowNs();
    }
  }
  void Record(SpanKind kind, int64_t start_ns, int64_t end_ns, uint32_t iteration) {
    if (enabled_) {
      spans_.push_back(Span{start_ns, end_ns, kNoSpan, iteration, kind});
    }
  }
  // Children are recorded before their iteration span (whose end is known
  // only after them); this re-parents the trailing children onto it.
  void AdoptSince(size_t first_child) {
    if (!enabled_ || spans_.empty()) {
      return;
    }
    uint32_t parent = static_cast<uint32_t>(spans_.size() - 1);
    for (size_t i = first_child; i < parent; ++i) {
      if (spans_[i].parent == kNoSpan) {
        spans_[i].parent = parent;
      }
    }
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanKind kind, uint32_t iteration, uint32_t parent = kNoSpan)
      : tracer_(tracer), id_(tracer.Begin(kind, parent, iteration)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint32_t id_;
};

// ---- Counter snapshots -----------------------------------------------------

struct Counters {
  uint64_t cpu_kernel = 0, cpu_driver = 0, cpu_device = 0;
  uint64_t uchan_crossings = 0, uchan_msgs = 0, uchan_kernel_ns = 0, uchan_driver_ns = 0;
  uint64_t uchan_ring_full_retries = 0, uchan_upcalls_dropped_full = 0;
  uint64_t guard_copies = 0, rx_bundles = 0, free_batches = 0, xmit_batches = 0;
  uint64_t tx_grants = 0, tx_grant_fallbacks = 0;
  uint64_t iotlb_hits = 0, iotlb_misses = 0, iotlb_invalidations = 0;
  uint64_t seals = 0, unseals = 0, shootdowns = 0;
  uint64_t desc_dma = 0, nic_rx_dropped = 0, nic_tx_dropped_chain = 0;
  uint64_t desc_windows = 0, tx_descs = 0, tx_frames_queued = 0;
  uint64_t tx_linearized = 0, netdev_rx_dropped = 0, netdev_rx_bad_checksum = 0;
  uint64_t netdev_tx_dropped = 0;
};

// Every field of Counters, for the element-wise difference.
#define SUD_PERFBENCH_COUNTER_FIELDS(X)                                                      \
  X(cpu_kernel) X(cpu_driver) X(cpu_device) X(uchan_crossings) X(uchan_msgs)                  \
  X(uchan_kernel_ns) X(uchan_driver_ns) X(uchan_ring_full_retries)                            \
  X(uchan_upcalls_dropped_full) X(guard_copies) X(rx_bundles) X(free_batches)                 \
  X(xmit_batches) X(tx_grants) X(tx_grant_fallbacks) X(iotlb_hits) X(iotlb_misses)            \
  X(iotlb_invalidations) X(seals) X(unseals) X(shootdowns) X(desc_dma) X(nic_rx_dropped)      \
  X(nic_tx_dropped_chain) X(desc_windows) X(tx_descs) X(tx_frames_queued) X(tx_linearized)    \
  X(netdev_rx_dropped) X(netdev_rx_bad_checksum) X(netdev_tx_dropped)

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
#define SUD_PERFBENCH_SUB(field) d.field = a.field - b.field;
  SUD_PERFBENCH_COUNTER_FIELDS(SUD_PERFBENCH_SUB)
#undef SUD_PERFBENCH_SUB
  return d;
}

Counters Snapshot(NetBench& bench) {
  Counters c;
  CpuModel& cpu = bench.machine.cpu();
  c.cpu_kernel = cpu.busy(kAccountKernel);
  c.cpu_driver = cpu.busy(kAccountDriver);
  c.cpu_device = cpu.busy(kAccountDevice);
  Uchan::Stats u = bench.ctx->AggregateCtlStats();
  c.uchan_crossings = u.downcall_batches + u.wakeups;
  c.uchan_msgs = u.upcalls_sync + u.upcalls_async + u.downcalls_sync + u.downcalls_async;
  c.uchan_kernel_ns = u.kernel_ns;
  c.uchan_driver_ns = u.driver_ns;
  c.uchan_ring_full_retries = u.ring_full_retries;
  c.uchan_upcalls_dropped_full = u.upcalls_dropped_full;
  kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
  const EthernetProxy::Stats& proxy = bench.proxy->stats();
  c.guard_copies = proxy.guard_copies.load();
  c.rx_bundles = proxy.rx_bundles.load();
  c.free_batches = proxy.free_batches.load();
  c.xmit_batches = proxy.xmit_batches.load();
  c.tx_grants = proxy.tx_grants.load();
  c.tx_grant_fallbacks = proxy.tx_grant_fallbacks.load();
  const hw::Iommu& iommu = bench.machine.iommu();
  c.iotlb_hits = iommu.iotlb_stats().hits;
  c.iotlb_misses = iommu.iotlb_stats().misses;
  c.iotlb_invalidations = iommu.iotlb_stats().invalidations;
  c.seals = iommu.seal_stats().seals;
  c.unseals = iommu.seal_stats().unseals;
  c.shootdowns = iommu.seal_stats().shootdowns;
  const devices::SimNic::Stats& nic = bench.sut_nic.stats();
  c.desc_dma = nic.desc_fetch_dma.load() + nic.desc_writeback_dma.load();
  c.nic_rx_dropped =
      nic.rx_dropped_no_desc.load() + nic.rx_dropped_oversize.load() + nic.rx_dropped_dma.load();
  c.nic_tx_dropped_chain = nic.tx_dropped_chain.load();
  c.desc_windows = bench.sut_driver->desc_window_maps();
  c.tx_descs = bench.sut_driver->stats().tx_desc_queued.load();
  c.tx_frames_queued = bench.sut_driver->stats().tx_queued.load();
  c.tx_linearized = netdev->stats().tx_linearized.load();
  c.netdev_rx_dropped = netdev->stats().rx_dropped.load();
  c.netdev_rx_bad_checksum = netdev->stats().rx_bad_checksum.load();
  c.netdev_tx_dropped = netdev->stats().tx_dropped.load();
  return c;
}

// ---- Workloads -------------------------------------------------------------

// What one iteration moved: wire packets (the per-packet metrics' base) and
// operations (packets on the streams, transactions on udp_rr: host_pps'
// base).
struct IterationWork {
  uint64_t packets = 0;
  uint64_t ops = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Builds the system under test; times construction and driver start.
  Status Setup(double* construct_s, double* start_sut_s) {
    int64_t t0 = NowNs();
    bench_ = std::make_unique<NetBench>(BenchOptions());
    int64_t t1 = NowNs();
    SUD_RETURN_IF_ERROR(bench_->StartSut(uml::DriverHost::Mode::kPumped));
    int64_t t2 = NowNs();
    *construct_s = static_cast<double>(t1 - t0) * 1e-9;
    *start_sut_s = static_cast<double>(t2 - t1) * 1e-9;
    // No peer machine: this endpoint replaces it on link side 1.
    bench_->link.Attach(1, &sink_);
    netdev_ = bench_->kernel.net().Find(bench_->SutIfname());
    netdev_->set_rx_sink([this](const kern::Skb& skb) { delivered_.Add(skb.span()); });
    return Status::Ok();
  }

  // One closed-loop iteration.
  virtual IterationWork Iterate(Tracer& tracer, uint32_t iteration) = 0;
  // Lets in-flight work finish (TX completions reaped, buffers freed).
  void Drain() {
    for (int i = 0; i < 8; ++i) {
      bench_->host->Pump();
    }
  }
  // Frames the generator put on the wire / handed the stack, with digests.
  uint64_t rx_expected() const { return rx_sent_; }
  uint64_t tx_expected() const { return tx_sent_; }

  // Figure 8's modeled CPU% and (udp_rr only) round-trip for `ops`
  // operations that charged `d`.
  virtual double ModeledCpuPct(const Counters& d, uint64_t ops) const = 0;
  virtual double ModeledRttUs(const Counters& /*d*/, uint64_t /*ops*/) const { return 0; }
  // Workload-specific gates beyond delivery and digest.
  virtual bool ExtraGates(const Counters& /*d*/, std::string* /*why*/) const { return true; }
  // Frames one SUT instance may carry, warm-up included (0: no limit).
  virtual uint64_t frame_cap() const { return 0; }
  // Timed-loop iterations one run may make (0: no limit besides --seconds).
  virtual uint64_t iteration_budget() const { return 0; }

  NetBench& bench() { return *bench_; }
  const FrameCounter& delivered() const { return delivered_; }
  const FrameCounter& sink() const { return sink_.counter; }
  uint64_t rx_digest() const { return rx_digest_; }
  uint64_t tx_digest() const { return tx_digest_; }
  uint64_t pump_calls() const { return pump_calls_; }
  uint64_t empty_pumps() const { return empty_pumps_; }
  uint64_t alloc_calls() const { return alloc_calls_; }
  void ResetLoopCounters() { pump_calls_ = empty_pumps_ = alloc_calls_ = 0; }

 protected:
  explicit Workload(uint64_t seed) : rng_(seed * 0x2545f4914f6cdd1dull + 1) {}

  virtual NetBench::Options BenchOptions() const {
    NetBench::Options options;
    options.start_peer = false;
    return options;
  }

  std::vector<uint8_t> RandomPayload(size_t len) {
    std::vector<uint8_t> payload(len);
    for (size_t i = 0; i < len; i += 8) {
      uint64_t word = SplitMix(rng_);
      std::memcpy(payload.data() + i, &word, std::min<size_t>(8, len - i));
    }
    return payload;
  }
  uint16_t RandomPort() { return static_cast<uint16_t>(1024 + SplitMix(rng_) % 60000); }

  // Pumps the driver once, counting pumps that delivered nothing.
  void Pump(Tracer& tracer, uint32_t iteration) {
    uint64_t before = delivered_.frames + sink_.counter.frames;
    {
      ScopedSpan span(tracer, kPump, iteration);
      bench_->host->Pump();
    }
    ++pump_calls_;
    if (delivered_.frames + sink_.counter.frames == before) {
      ++empty_pumps_;
    }
  }

  // Injects a frame at the wire into the SUT NIC.
  void Inject(const std::vector<uint8_t>& frame, uint64_t digest) {
    rx_digest_ += digest;
    ++rx_sent_;
    (void)bench_->link.Transmit(1, {frame.data(), frame.size()});
  }

  uint64_t rng_;
  std::unique_ptr<NetBench> bench_;
  kern::NetDevice* netdev_ = nullptr;
  WireSink sink_;
  FrameCounter delivered_;
  uint64_t rx_sent_ = 0, rx_digest_ = 0;
  uint64_t tx_sent_ = 0, tx_digest_ = 0;
  uint64_t pump_calls_ = 0, empty_pumps_ = 0, alloc_calls_ = 0;
};

struct PooledFrame {
  std::vector<uint8_t> bytes;
  uint64_t digest = 0;
};

// rx_stream: fig8 row 1 (TCP_STREAM, SUD): 1448-byte MSS segments received
// in bursts of 16, one Pump per burst, one queue.
class RxStream : public Workload {
 public:
  explicit RxStream(uint64_t seed) : Workload(seed) {
    uint16_t src_port = RandomPort();
    for (size_t i = 0; i < kPoolFrames; ++i) {
      std::vector<uint8_t> payload = RandomPayload(kTcpMss);
      PooledFrame frame;
      frame.bytes = kern::BuildPacket(kMacA, kMacB, src_port, 80, {payload.data(), payload.size()});
      frame.digest = FrameDigest({frame.bytes.data(), frame.bytes.size()});
      pool_.push_back(std::move(frame));
    }
  }

  IterationWork Iterate(Tracer& tracer, uint32_t iteration) override {
    const PooledFrame* burst[kRxBurst];
    {
      ScopedSpan span(tracer, kBuild, iteration);
      for (int i = 0; i < kRxBurst; ++i) {
        burst[i] = &pool_[next_++ % pool_.size()];
      }
    }
    {
      ScopedSpan span(tracer, kInject, iteration);
      for (const PooledFrame* frame : burst) {
        Inject(frame->bytes, frame->digest);
      }
    }
    Pump(tracer, iteration);
    return {kRxBurst, kRxBurst};
  }

  double ModeledCpuPct(const Counters& d, uint64_t ops) const override {
    double wall_ns = static_cast<double>(ops) * kTcpWireBytesPerSeg * 8.0;
    double cpu_ns = static_cast<double>(d.cpu_kernel + d.cpu_driver) +
                    static_cast<double>(ops) * kTcpAppNsPerPkt;
    return ScheduleOnCoresWithTotal({d.uchan_kernel_ns}, {d.uchan_driver_ns}, cpu_ns, wall_ns,
                                    static_cast<uint32_t>(kCores))
        .cpu_pct;
  }

 private:
  std::vector<PooledFrame> pool_;
  size_t next_ = 0;
};

// tx_jumbo_sealed: fig8 row 12 (TCP_STREAM 9K TXZC): the SUT transmits
// 9000-MTU frag skbs whose frags are DRAM pages, granted to the device under
// proxy.sealed_tx, in bursts of 8. The benchmark builds each skb itself and
// times every PhysicalMemory::AllocPages call it makes.
class TxJumboSealed : public Workload {
 public:
  explicit TxJumboSealed(uint64_t seed) : Workload(seed) {
    uint16_t dst_port = RandomPort();
    for (size_t i = 0; i < kPoolFrames; ++i) {
      std::vector<uint8_t> payload = RandomPayload(kJumboTcpMss);
      PooledFrame frame;
      frame.bytes =
          kern::BuildPacket(kMacB, kMacA, 80, dst_port, {payload.data(), payload.size()});
      frame.digest = FrameDigest({frame.bytes.data(), frame.bytes.size()});
      pool_.push_back(std::move(frame));
    }
  }

  IterationWork Iterate(Tracer& tracer, uint32_t iteration) override {
    std::vector<kern::SkbPtr> skbs;
    skbs.reserve(kTxBurst);
    {
      ScopedSpan build(tracer, kBuild, iteration);
      for (int i = 0; i < kTxBurst; ++i) {
        const PooledFrame& frame = pool_[next_++ % pool_.size()];
        kern::SkbPtr skb = BuildDramFragSkb(tracer, iteration, build.id(), frame.bytes);
        if (skb == nullptr) {
          ++build_failures_;
          continue;
        }
        tx_digest_ += frame.digest;
        ++tx_sent_;
        skbs.push_back(std::move(skb));
      }
    }
    {
      ScopedSpan span(tracer, kTransmit, iteration);
      (void)bench_->kernel.net().TransmitBatch(netdev_, std::move(skbs));
    }
    Pump(tracer, iteration);
    return {kTxBurst, kTxBurst};
  }

  double ModeledCpuPct(const Counters& d, uint64_t ops) const override {
    double wall_ns = static_cast<double>(ops) * kJumboTcpWireBytesPerSeg * 8.0;
    double cpu_ns = static_cast<double>(d.cpu_kernel + d.cpu_driver) +
                    static_cast<double>(ops) * kTcpAppNsPerPkt;
    return ScheduleOnCoresWithTotal({d.uchan_kernel_ns}, {d.uchan_driver_ns}, cpu_ns, wall_ns,
                                    static_cast<uint32_t>(kCores))
        .cpu_pct;
  }

  uint64_t frame_cap() const override { return kSealedTxFrameCap; }
  uint64_t iteration_budget() const override {
    return (kSealedTxFrameCap - kWarmupIterations * kTxBurst) / kTxBurst;
  }

  bool ExtraGates(const Counters& d, std::string* why) const override {
    if (build_failures_ != 0) {
      *why += " dram_exhausted_building_skbs=" + std::to_string(build_failures_);
    }
    if (d.tx_linearized != 0) {
      *why += " linearize_copies=" + std::to_string(d.tx_linearized);
    }
    if (d.tx_grant_fallbacks != 0) {
      *why += " tx_grant_fallbacks=" + std::to_string(d.tx_grant_fallbacks);
    }
    return build_failures_ == 0 && d.tx_linearized == 0 && d.tx_grant_fallbacks == 0;
  }

 protected:
  NetBench::Options BenchOptions() const override {
    NetBench::Options options = Workload::BenchOptions();
    options.mtu = static_cast<uint32_t>(kern::kJumboMtu);
    options.peer_mtu = static_cast<uint32_t>(kern::kJumboMtu);
    options.proxy.sealed_tx = true;
    return options;
  }

 private:
  // testing::MakeDramFragSkb, with the page allocation as its own span: the
  // head stays linear, the body is written once into DRAM pages and
  // referenced by page-sized frags; the skb frees the pages at death.
  kern::SkbPtr BuildDramFragSkb(Tracer& tracer, uint32_t iteration, uint32_t parent,
                                const std::vector<uint8_t>& frame) {
    hw::PhysicalMemory& dram = bench_->machine.dram();
    size_t body = frame.size() - kJumboHeadBytes;
    uint64_t pages = hw::PageAlignUp(body) / hw::kPageSize;
    Result<uint64_t> paddr = Status(ErrorCode::kExhausted, "unset");
    {
      ScopedSpan span(tracer, kAlloc, iteration, parent);
      paddr = dram.AllocPages(pages);
    }
    ++alloc_calls_;
    if (!paddr.ok()) {
      return nullptr;
    }
    Result<ByteSpan> window = dram.Window(paddr.value(), body);
    if (!window.ok()) {
      dram.FreePages(paddr.value(), pages);
      return nullptr;
    }
    std::memcpy(window.value().data(), frame.data() + kJumboHeadBytes, body);
    auto skb = std::make_unique<kern::Skb>(ConstByteSpan(frame.data(), kJumboHeadBytes));
    for (size_t off = 0; off < body; off += kJumboFragBytes) {
      size_t chunk = std::min(body - off, kJumboFragBytes);
      skb->AppendDramFrag(paddr.value() + off, ConstByteSpan(window.value().data() + off, chunk));
    }
    uint64_t base = paddr.value();
    skb->set_release([&dram, base, pages] { dram.FreePages(base, pages); });
    return skb;
  }

  std::vector<PooledFrame> pool_;
  size_t next_ = 0;
  uint64_t build_failures_ = 0;
};

// udp_rr: fig8 row 7 (UDP_RR, SUD): one 64-byte transaction in flight,
// served serially — request on the wire, Pump, reply Transmit, Pump.
class UdpRr : public Workload {
 public:
  explicit UdpRr(uint64_t seed) : Workload(seed) {
    uint16_t client_port = RandomPort();
    for (size_t i = 0; i < kPoolFrames; ++i) {
      std::vector<uint8_t> payload = RandomPayload(kUdpPayload);
      PooledFrame request, reply;
      request.bytes = kern::BuildPacket(kMacA, kMacB, client_port, 7002,
                                        {payload.data(), payload.size()});
      request.digest = FrameDigest({request.bytes.data(), request.bytes.size()});
      reply.bytes = kern::BuildPacket(kMacB, kMacA, 7002, client_port,
                                      {payload.data(), payload.size()});
      reply.digest = FrameDigest({reply.bytes.data(), reply.bytes.size()});
      requests_.push_back(std::move(request));
      replies_.push_back(std::move(reply));
    }
  }

  IterationWork Iterate(Tracer& tracer, uint32_t iteration) override {
    size_t slot = next_++ % requests_.size();
    {
      ScopedSpan span(tracer, kInject, iteration);
      Inject(requests_[slot].bytes, requests_[slot].digest);
    }
    Pump(tracer, iteration);  // the request reaches the server
    kern::SkbPtr reply;
    {
      ScopedSpan span(tracer, kBuild, iteration);
      const std::vector<uint8_t>& bytes = replies_[slot].bytes;
      reply = kern::MakeSkb({bytes.data(), bytes.size()});
      tx_digest_ += replies_[slot].digest;
      ++tx_sent_;
    }
    {
      ScopedSpan span(tracer, kTransmit, iteration);
      (void)bench_->kernel.net().Transmit(netdev_, std::move(reply));
    }
    Pump(tracer, iteration);  // the reply leaves on the wire
    return {2, 1};
  }

  double ServerNsPerTxn(const Counters& d, uint64_t ops) const {
    return static_cast<double>(d.cpu_kernel + d.cpu_driver) / static_cast<double>(ops);
  }
  double RttNs(const Counters& d, uint64_t ops) const {
    return kRrClientBaseNs + ServerNsPerTxn(d, ops) / 2.0;
  }
  double ModeledCpuPct(const Counters& d, uint64_t ops) const override {
    return 100.0 * ServerNsPerTxn(d, ops) / RttNs(d, ops);
  }
  double ModeledRttUs(const Counters& d, uint64_t ops) const override {
    return RttNs(d, ops) / 1000.0;
  }

 private:
  std::vector<PooledFrame> requests_;
  std::vector<PooledFrame> replies_;
  size_t next_ = 0;
};

constexpr const char* kWorkloads[] = {"rx_stream", "tx_jumbo_sealed", "udp_rr"};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "rx_stream") return std::make_unique<RxStream>(seed);
  if (name == "tx_jumbo_sealed") return std::make_unique<TxJumboSealed>(seed);
  if (name == "udp_rr") return std::make_unique<UdpRr>(seed);
  return nullptr;
}

// ---- Metrics ---------------------------------------------------------------

// host: measured on the host clock; model: CpuModel simulated time
// (deterministic in pumped mode); count: layer counters and ratios of them.
enum class MetricKind { kHost, kModel, kCount };

struct Metric {
  std::string name;
  double value;
  std::string unit;
  MetricKind kind;
};

using Metrics = std::vector<Metric>;

std::string FormatDouble(double value) {
  char buf[64];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

// Nearest-rank percentile of `n` host-time samples (ns), in microseconds.
// Reorders the samples in place (no copy, so memory use stays flat).
double PercentileUs(uint32_t* samples, size_t n, double pct) {
  if (n == 0) {
    return 0;
  }
  size_t rank = std::min(static_cast<size_t>(pct / 100.0 * static_cast<double>(n)), n - 1);
  std::nth_element(samples, samples + rank, samples + n);
  return samples[rank] / 1000.0;
}

// Read and written through volatiles so the compiler cannot fold the
// calibration loop to a constant.
volatile uint64_t g_calibration_seed = 0x9e3779b97f4a7c15ull;
volatile uint64_t g_calibration_sink = 0;

double CalibrationUs() {
  // A fixed integer loop that touches no repository code: the host-speed
  // witness recorded beside every run. Median of three.
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    int64_t t0 = NowNs();
    uint64_t state = g_calibration_seed;
    uint64_t hash = 0xcbf29ce484222325ull;
    for (int i = 0; i < (1 << 21); ++i) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      hash = (hash ^ state) * 0x100000001b3ull;
    }
    g_calibration_sink = hash;
    runs.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
  }
  return Median(runs);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- One run ---------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setup_reps = 11;
  uint64_t iterations = 0;  // fixed iteration count instead of --seconds
  bool warmup = true;
  std::string trace_out;
};

// The timed loop's host-side record.
struct LoopRecord {
  uint64_t iterations = 0;
  uint64_t packets = 0;
  uint64_t ops = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  double ops_per_s() const { return Ratio(ops, static_cast<double>(wall_ns) * 1e-9); }
};

struct RunResult {
  bool correct = true;
  std::string failure;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  std::string record;  // extra context printed before the result line
};

class Runner {
 public:
  explicit Runner(Options options) : options_(std::move(options)) {}

  RunResult Run() {
    RunResult result;
    std::vector<double> setup_s, construct_s, start_s;
    for (int rep = 0; rep < std::max(1, options_.setup_reps); ++rep) {
      workload_ = MakeWorkload(options_.workload, options_.seed);
      double construct = 0, start = 0;
      Status status = workload_->Setup(&construct, &start);
      if (!status.ok()) {
        result.correct = false;
        result.failure = "setup failed: " + status.ToString();
        result.attempted = 1;
        result.failed = 1;
        return result;
      }
      construct_s.push_back(construct);
      start_s.push_back(start);
      setup_s.push_back(construct + start);
    }
    latency_ns_.assign(kMaxLatencySamples, 0);  // touched now: RSS independent of run length
    double calib_us = CalibrationUs();

    Workload& w = *workload_;
    Tracer tracer;  // disabled until a traced slice
    if (options_.warmup) {
      for (int i = 0; i < kWarmupIterations; ++i) {
        w.Iterate(tracer, 0);
      }
      w.Drain();
    }
    uint64_t rx_base = w.rx_expected(), tx_base = w.tx_expected();
    uint64_t rx_seen_base = w.delivered().frames, tx_seen_base = w.sink().frames;
    w.ResetLoopCounters();
    w.bench().machine.cpu().Reset();
    Counters before = Snapshot(w.bench());

    // The traced run alternates untraced and traced slices, so host drift hits
    // the overhead baseline and the spans alike.
    LoopRecord plain, traced;
    std::vector<double> slice_p50, slice_p99;
    uint64_t latency_samples = 0;
    // A fixed --iterations count (the self-tests) overrides the budget.
    uint64_t budget = options_.iterations > 0 ? 0 : w.iteration_budget();
    for (int slice = 0; slice < kSlices; ++slice) {
      bool traced_slice = options_.trace && slice % 2 == 1;
      tracer.Enable(traced_slice);
      uint64_t fixed = options_.iterations / kSlices +
                       (slice == kSlices - 1 ? options_.iterations % kSlices : 0);
      uint64_t count = Loop(tracer, options_.seconds / kSlices, fixed, budget / kSlices,
                            traced_slice ? &traced : &plain);
      if (!traced_slice) {
        size_t n = static_cast<size_t>(std::min<uint64_t>(count, kMaxLatencySamples));
        slice_p50.push_back(PercentileUs(latency_ns_.data(), n, 50));
        slice_p99.push_back(PercentileUs(latency_ns_.data(), n, 99));
        latency_samples += n;
      }
    }
    tracer.Enable(false);
    Counters after = Snapshot(w.bench());
    w.Drain();

    uint64_t packets = plain.packets + traced.packets;
    uint64_t ops = plain.ops + traced.ops;
    uint64_t iterations = plain.iterations + traced.iterations;
    Counters d = after - before;

    // ---- correctness gates
    uint64_t rx_expected = w.rx_expected() - rx_base, tx_expected = w.tx_expected() - tx_base;
    uint64_t rx_seen = w.delivered().frames - rx_seen_base;
    uint64_t tx_seen = w.sink().frames - tx_seen_base;
    std::string why;
    uint64_t lost = (rx_expected > rx_seen ? rx_expected - rx_seen : 0) +
                    (tx_expected > tx_seen ? tx_expected - tx_seen : 0);
    if (rx_seen != rx_expected || tx_seen != tx_expected) {
      why += " delivered rx " + std::to_string(rx_seen) + "/" + std::to_string(rx_expected) +
             " tx " + std::to_string(tx_seen) + "/" + std::to_string(tx_expected);
    }
    if (!why.empty()) {
      // Where the missing frames were counted, if anywhere.
      why += " (netdev tx_dropped " + std::to_string(d.netdev_tx_dropped) + ", rx_dropped " +
             std::to_string(d.netdev_rx_dropped) + "; nic tx_dropped_chain " +
             std::to_string(d.nic_tx_dropped_chain) + ", rx_dropped " +
             std::to_string(d.nic_rx_dropped) + "; uchan upcalls_dropped_full " +
             std::to_string(d.uchan_upcalls_dropped_full) + "; tx_grant_fallbacks " +
             std::to_string(d.tx_grant_fallbacks) + ")";
    }
    if (w.delivered().digest != w.rx_digest() || w.sink().digest != w.tx_digest()) {
      why += " frame digest mismatch";
    }
    uint32_t outstanding = w.bench().ctx->pool().outstanding();
    if (outstanding != 0) {
      why += " pool outstanding after drain=" + std::to_string(outstanding);
    }
    bool gates = why.empty();
    gates = w.ExtraGates(d, &why) && gates;
    uint64_t attempted_pkts = rx_expected + tx_expected;
    result.attempted = std::max<uint64_t>(ops, 1);
    // Each lost frame fails its operation (a lost request or reply fails its
    // transaction); a gate that fails without a loss fails at least one.
    result.failed = std::min(result.attempted, lost);
    if (!gates) {
      result.correct = false;
      result.failure = why;
      result.failed = std::max<uint64_t>(result.failed, 1);
    }

    // ---- end-to-end (host metrics from the untraced slices only)
    double host_pps = plain.ops_per_s();
    double p50 = Median(slice_p50);
    double p99 = Median(slice_p99);
    double cpu_us_per_pkt = Ratio(static_cast<double>(plain.cpu_ns) / 1000.0,
                                  static_cast<double>(plain.packets));
    double loss_frac = Ratio(static_cast<double>(lost), static_cast<double>(attempted_pkts));
    double pkts = static_cast<double>(packets);
    Metrics& e2e = result.end_to_end;
    e2e.push_back({"setup_s", Median(setup_s), "s", MetricKind::kHost});
    e2e.push_back({"host_pps", host_pps, "1/s", MetricKind::kHost});
    e2e.push_back({"host_lat_p99_us", p99, "us", MetricKind::kHost});
    e2e.push_back({"host_cpu_us_per_pkt", cpu_us_per_pkt, "us", MetricKind::kHost});
    e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB", MetricKind::kHost});
    e2e.push_back({"modeled_cpu_pct", w.ModeledCpuPct(d, ops), "%", MetricKind::kModel});
    e2e.push_back({"delivered_frac", 1.0 - loss_frac, "fraction", MetricKind::kCount});

    // ---- per-layer
    Metrics& pl = result.per_layer;
    auto add = [&pl](std::string name, double value, std::string unit, MetricKind kind) {
      pl.push_back({std::move(name), value, std::move(unit), kind});
    };
    // Host self time per layer, from the traced slices' spans.
    std::vector<int64_t> self(kKinds, 0), total(kKinds, 0);
    std::vector<uint64_t> count(kKinds, 0);
    int64_t iteration_ns = 0;
    SelfTimes(tracer.spans(), &self, &total, &count, &iteration_ns);
    double traced_pkts = static_cast<double>(traced.packets);
    int64_t self_sum = 0;
    for (int k = 0; k < kKinds; ++k) {
      self_sum += self[k];
    }
    add("devices.link.inject_ns_per_pkt", Ratio(self[kInject], traced_pkts), "ns",
        MetricKind::kHost);
    add("uml.host.pump_ns_per_pkt", Ratio(self[kPump], traced_pkts), "ns", MetricKind::kHost);
    add("kern.net.transmit_ns_per_pkt", Ratio(self[kTransmit], traced_pkts), "ns",
        MetricKind::kHost);
    add("hw.phys_mem.alloc_ns_per_call", Ratio(total[kAlloc], count[kAlloc]), "ns",
        MetricKind::kHost);
    add("hw.phys_mem.alloc_calls_per_pkt", Ratio(w.alloc_calls(), pkts), "count",
        MetricKind::kCount);
    add("bench.gen_ns_per_pkt", Ratio(self[kBuild], traced_pkts), "ns", MetricKind::kHost);
    add("bench.loop_ns_per_pkt", Ratio(self[kIter], traced_pkts), "ns", MetricKind::kHost);
    for (int k = 0; k < kKinds; ++k) {
      add(std::string("trace.self_share.") + kSpanLayer[k], Ratio(self[k], iteration_ns),
          "fraction", MetricKind::kHost);
    }
    add("trace.self_sum_frac", Ratio(self_sum, iteration_ns), "fraction", MetricKind::kHost);
    add("trace.spans", static_cast<double>(tracer.spans().size()), "count", MetricKind::kHost);
    double traced_pps = traced.ops_per_s();
    double plain_pps = host_pps;
    add("trace.host_pps_untraced", plain_pps, "1/s", MetricKind::kHost);
    add("trace.host_pps_traced", traced_pps, "1/s", MetricKind::kHost);
    add("trace.overhead_frac", Ratio(plain_pps - traced_pps, plain_pps), "fraction",
        MetricKind::kHost);
    add("setup.construct_s", Median(construct_s), "s", MetricKind::kHost);
    add("setup.start_sut_s", Median(start_s), "s", MetricKind::kHost);
    add("host.calib_us", calib_us, "us", MetricKind::kHost);
    add("host.nproc", static_cast<double>(std::thread::hardware_concurrency()), "count",
        MetricKind::kHost);
    // The median is per-layer: host speed phases make the per-iteration
    // distribution bimodal on udp_rr, and its median jumps between the modes.
    add("host_lat_p50_us", p50, "us", MetricKind::kHost);
    add("host_lat.samples", static_cast<double>(latency_samples), "count", MetricKind::kHost);
    // Modeled (CpuModel simulated time; exact on the pumped workloads).
    add("base.cpu.kernel_ns_per_pkt", Ratio(d.cpu_kernel, pkts), "sim_ns", MetricKind::kModel);
    add("base.cpu.driver_ns_per_pkt", Ratio(d.cpu_driver, pkts), "sim_ns", MetricKind::kModel);
    add("base.cpu.device_ns_per_pkt", Ratio(d.cpu_device, pkts), "sim_ns", MetricKind::kModel);
    add("modeled_rtt_us", w.ModeledRttUs(d, ops), "sim_us", MetricKind::kModel);
    add("sud.uchan.crossings_per_pkt", Ratio(d.uchan_crossings, pkts), "count",
        MetricKind::kModel);
    add("sud.uchan.msgs_per_pkt", Ratio(d.uchan_msgs, pkts), "count", MetricKind::kModel);
    add("sud.uchan.kernel_ns_per_pkt", Ratio(d.uchan_kernel_ns, pkts), "sim_ns",
        MetricKind::kModel);
    add("sud.uchan.driver_ns_per_pkt", Ratio(d.uchan_driver_ns, pkts), "sim_ns",
        MetricKind::kModel);
    // Counts and ratios.
    add("sud.uchan.ring_full_retries", d.uchan_ring_full_retries, "count", MetricKind::kCount);
    add("sud.uchan.upcalls_dropped_full", d.uchan_upcalls_dropped_full, "count",
        MetricKind::kCount);
    add("sud.proxy.guard_copies_per_pkt", Ratio(d.guard_copies, pkts), "count",
        MetricKind::kCount);
    add("sud.proxy.rx_bundles_per_pkt", Ratio(d.rx_bundles, pkts), "count", MetricKind::kCount);
    add("sud.proxy.free_batches_per_pkt", Ratio(d.free_batches, pkts), "count",
        MetricKind::kCount);
    add("sud.proxy.xmit_batches_per_pkt", Ratio(d.xmit_batches, pkts), "count",
        MetricKind::kCount);
    add("sud.proxy.tx_grants_per_pkt", Ratio(d.tx_grants, pkts), "count", MetricKind::kCount);
    add("sud.proxy.tx_grant_fallbacks", d.tx_grant_fallbacks, "count", MetricKind::kCount);
    add("hw.iommu.iotlb_hit_ratio", Ratio(d.iotlb_hits, d.iotlb_hits + d.iotlb_misses),
        "fraction", MetricKind::kCount);
    add("hw.iommu.iotlb_misses_per_pkt", Ratio(d.iotlb_misses, pkts), "count",
        MetricKind::kCount);
    add("hw.iommu.invalidations_per_pkt", Ratio(d.iotlb_invalidations, pkts), "count",
        MetricKind::kCount);
    add("hw.iommu.seals_per_pkt", Ratio(d.seals, pkts), "count", MetricKind::kCount);
    add("hw.iommu.unseals_per_pkt", Ratio(d.unseals, pkts), "count", MetricKind::kCount);
    add("hw.iommu.shootdowns_per_pkt", Ratio(d.shootdowns, pkts), "count", MetricKind::kCount);
    add("devices.sim_nic.desc_dma_per_pkt", Ratio(d.desc_dma, pkts), "count", MetricKind::kCount);
    add("devices.sim_nic.rx_dropped", d.nic_rx_dropped, "count", MetricKind::kCount);
    add("devices.sim_nic.tx_dropped_chain", d.nic_tx_dropped_chain, "count", MetricKind::kCount);
    add("drivers.e1000e.desc_windows_per_pkt", Ratio(d.desc_windows, pkts), "count",
        MetricKind::kCount);
    add("drivers.e1000e.tx_desc_per_pkt", Ratio(d.tx_descs, d.tx_frames_queued), "count",
        MetricKind::kCount);
    add("kern.netdev.tx_linearized_per_pkt", Ratio(d.tx_linearized, pkts), "count",
        MetricKind::kCount);
    add("kern.netdev.rx_dropped", d.netdev_rx_dropped, "count", MetricKind::kCount);
    add("kern.netdev.rx_bad_checksum", d.netdev_rx_bad_checksum, "count", MetricKind::kCount);
    add("uml.host.pump_calls_per_pkt", Ratio(w.pump_calls(), pkts), "count", MetricKind::kCount);
    add("uml.host.empty_pump_frac", Ratio(w.empty_pumps(), w.pump_calls()), "fraction",
        MetricKind::kCount);
    add("sud.pool.outstanding_after_drain", outstanding, "count", MetricKind::kCount);
    add("loss_frac", loss_frac, "fraction", MetricKind::kCount);

    // A capped workload shows its cap, the frames this SUT instance carried
    // (warm-up included) and whether the cap, not --seconds, ended the loop.
    bool stopped_at_cap = budget > 0 && iterations >= budget / kSlices * kSlices;
    char record[8192];
    std::snprintf(record, sizeof(record),
                  "{\"workload\": \"%s\", \"seed\": %llu, \"iterations\": %llu, "
                  "\"packets\": %llu, \"ops\": %llu, \"latency_samples\": %zu, "
                  "\"loop_wall_s\": %.6f, \"frame_cap\": %llu, \"frames_on_sut\": %llu, "
                  "\"stopped_at_cap\": %s, \"host.calib_us\": %.3f, \"nproc\": %u, "
                  "\"spans\": %zu, \"correct\": %s}",
                  options_.workload.c_str(), static_cast<unsigned long long>(options_.seed),
                  static_cast<unsigned long long>(iterations),
                  static_cast<unsigned long long>(packets), static_cast<unsigned long long>(ops),
                  static_cast<size_t>(latency_samples),
                  static_cast<double>(plain.wall_ns + traced.wall_ns) * 1e-9,
                  static_cast<unsigned long long>(w.frame_cap()),
                  static_cast<unsigned long long>(w.rx_expected() + w.tx_expected()),
                  stopped_at_cap ? "true" : "false", calib_us,
                  std::thread::hardware_concurrency(), tracer.spans().size(),
                  result.correct ? "true" : "false");
    result.record = record;
    if (options_.trace && !options_.trace_out.empty()) {
      WriteSpans(tracer.spans(), options_.trace_out);
    }
    return result;
  }

 private:
  // Runs iterations until `seconds` pass (or `fixed` iterations when > 0),
  // `budget` iterations are spent or the tracer fills, adding them to `rec`
  // and (untraced) their host times to latency_ns_; returns the count. One
  // clock read per iteration: each iteration's span starts where the
  // previous one ended, so the samples tile the loop.
  uint64_t Loop(Tracer& tracer, double seconds, uint64_t fixed, uint64_t budget,
                LoopRecord* rec) {
    Workload& w = *workload_;
    uint64_t count = 0;
    int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
    int64_t cpu0 = ProcessCpuNs();
    int64_t start = NowNs();
    int64_t prev = start;
    for (;;) {
      size_t first_child = tracer.spans().size();
      uint32_t iteration = static_cast<uint32_t>(iteration_id_++);
      IterationWork work = w.Iterate(tracer, iteration);
      int64_t now = NowNs();
      tracer.Record(kIter, prev, now, iteration);
      tracer.AdoptSince(first_child);
      if (!tracer.enabled()) {
        // Reservoir sampling (Algorithm R) once the buffer is full, so the
        // percentiles cover the whole loop at a fixed memory cost.
        uint64_t slot = count;
        if (slot >= kMaxLatencySamples) {
          slot = SplitMix(reservoir_rng_) % (count + 1);
        }
        if (slot < kMaxLatencySamples) {
          latency_ns_[slot] = static_cast<uint32_t>(
              std::min<int64_t>(now - prev, static_cast<int64_t>(UINT32_MAX)));
        }
      }
      prev = now;
      ++count;
      rec->iterations++;
      rec->packets += work.packets;
      rec->ops += work.ops;
      if (fixed > 0 ? count >= fixed
                    : (now - start >= budget_ns || (budget > 0 && count >= budget) ||
                       (tracer.enabled() && tracer.nearly_full()))) {
        break;
      }
    }
    rec->wall_ns += prev - start;
    rec->cpu_ns += ProcessCpuNs() - cpu0;
    return count;
  }

  // A span's self time is its duration minus its direct children's; the
  // iteration spans' self time is the loop's own overhead (bench.loop).
  static void SelfTimes(const std::vector<Span>& spans, std::vector<int64_t>* self,
                        std::vector<int64_t>* total, std::vector<uint64_t>* count,
                        int64_t* iteration_ns) {
    for (const Span& span : spans) {
      int64_t dur = span.end_ns - span.start_ns;
      (*self)[span.kind] += dur;
      (*total)[span.kind] += dur;
      (*count)[span.kind]++;
      if (span.parent != kNoSpan) {
        (*self)[spans[span.parent].kind] -= dur;
      } else {
        *iteration_ns += dur;
      }
    }
  }

  static void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    std::fprintf(out, "span,parent,iteration,name,layer,start_ns,end_ns\n");
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out, "%zu,%lld,%u,%s,%s,%lld,%lld\n", i,
                   s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent), s.iteration,
                   kSpanName[s.kind], kSpanLayer[s.kind],
                   static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin));
    }
    std::fclose(out);
  }

  Options options_;
  std::unique_ptr<Workload> workload_;
  std::vector<uint32_t> latency_ns_;
  uint64_t iteration_id_ = 0;
  uint64_t reservoir_rng_ = 0x5eed;
};

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           FormatDouble(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string ResultJson(const RunResult& result, bool trace) {
  return std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": " + MetricsJson(trace ? result.per_layer : result.end_to_end) + "}";
}

// ---- Self-tests --------------------------------------------------------------

// Figure 8's SUD rows at fig8's run lengths, cold (no warm-up), as fig8 runs
// them: the benchmark's modeled numbers must print identically.
bool AnchorTest() {
  struct Anchor {
    const char* workload;
    uint64_t iterations;
    const char* metric;
    const char* expected;
    double (*as_fig8_prints)(double);  // how fig8 reports the metric
  };
  auto same = [](double value) { return value; };
  auto tps = [](double rtt_us) { return 1e6 / rtt_us; };  // fig8's UDP_RR Tx/s
  const Anchor anchors[] = {
      {"rx_stream", 40000 / kRxBurst, "modeled_cpu_pct", "14.27", same},      // fig8 row 1
      {"tx_jumbo_sealed", 40000 / kTxBurst, "modeled_cpu_pct", "2.08", same},  // fig8 row 12
      {"udp_rr", 4000, "modeled_cpu_pct", "12.20", same},                       // fig8 row 7
      {"udp_rr", 4000, "modeled_rtt_us", "9581.57", tps},                       // fig8 row 7
  };
  bool ok = true;
  for (const Anchor& anchor : anchors) {
    Options options;
    options.workload = anchor.workload;
    options.iterations = anchor.iterations;
    options.warmup = false;
    options.setup_reps = 1;
    RunResult result = Runner(options).Run();
    double value = 0;
    for (const Metrics* set : {&result.end_to_end, &result.per_layer}) {
      for (const Metric& m : *set) {
        if (m.name == anchor.metric) {
          value = m.value;
        }
      }
    }
    value = anchor.as_fig8_prints(value);
    char printed[32];
    std::snprintf(printed, sizeof(printed), "%.2f", value);
    bool match = result.correct && std::string(printed) == anchor.expected;
    std::printf("anchor %-16s %-16s fig8 %-8s got %-8s (%.6f) %s\n", anchor.workload,
                anchor.metric, anchor.expected, printed, value, match ? "MATCH" : "MISMATCH");
    if (!result.correct) {
      std::printf("  gate failure:%s\n", result.failure.c_str());
    }
    ok = ok && match;
  }
  return ok;
}

// Modeled and count metrics only: host times differ run to run by nature.
Metrics Deterministic(const RunResult& result) {
  Metrics out;
  for (const Metrics* set : {&result.end_to_end, &result.per_layer}) {
    for (const Metric& m : *set) {
      if (m.kind != MetricKind::kHost) {
        out.push_back(m);
      }
    }
  }
  return out;
}

// Lists the metrics whose values differ (bit-for-bit) between two runs.
std::string Differences(const Metrics& a, const Metrics& b) {
  std::string diff;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (std::memcmp(&a[i].value, &b[i].value, sizeof(double)) != 0) {
      diff += " " + a[i].name + " (" + FormatDouble(a[i].value) + " vs " +
              FormatDouble(b[i].value) + ")";
    }
  }
  return diff;
}

// Two same-seed runs of each pumped workload must agree bit for bit on every
// modeled and count metric; a different seed is compared and reported.
bool DeterminismTest() {
  bool ok = true;
  for (const char* workload : {"rx_stream", "tx_jumbo_sealed", "udp_rr"}) {
    auto run = [workload](uint64_t seed) {
      Options options;
      options.workload = workload;
      options.seed = seed;
      options.iterations = 2000;
      options.setup_reps = 1;
      return Runner(options).Run();
    };
    RunResult a = run(1), b = run(1), c = run(2);
    std::string same_seed = Differences(Deterministic(a), Deterministic(b));
    std::string other_seed = Differences(Deterministic(a), Deterministic(c));
    bool pass = a.correct && b.correct && c.correct && same_seed.empty();
    std::printf("determinism %-16s same seed: %s%s\n", workload,
                same_seed.empty() ? "bit-identical" : "DIFFERS:", same_seed.c_str());
    std::printf("determinism %-16s seed 1 vs 2: %s%s\n", workload,
                other_seed.empty() ? "bit-identical" : "differs (finding):", other_seed.c_str());
    ok = ok && pass;
  }
  return ok;
}

// tx_jumbo_sealed past kSealedTxFrameCap on one device context. A known
// failure: it fails while DmaSpace hands sealed-TX grants IOVAs inside the
// MSI window. Once it passes, the cap can go.
bool SealedTxLongRunTest() {
  Options options;
  options.workload = "tx_jumbo_sealed";
  options.iterations = 50000;  // 400,000 frames after the warm-up
  options.setup_reps = 1;
  RunResult result = Runner(options).Run();
  std::printf("sealed_tx_long_run: 400000 frames on one device context (cap %llu): %s%s\n",
              static_cast<unsigned long long>(kSealedTxFrameCap),
              result.correct ? "all delivered" : "FAILED:", result.failure.c_str());
  if (!result.correct) {
    std::printf("  known defect: DmaSpace's bump IOVA allocator reaches the MSI window at "
                "0xfee00000 (perfbench/README.md)\n");
  }
  return result.correct;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sud_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n"
               "       sud_perfbench --selftest anchor|determinism|all|sealed_tx_long_run\n"
               "workloads: rx_stream tx_jumbo_sealed udp_rr\n");
  return 2;
}

}  // namespace
}  // namespace sud::perfbench

int main(int argc, char** argv) {
  using namespace sud::perfbench;
  sud::Logger::Get().set_min_level(sud::LogLevel::kError);
  Options options;
  std::string selftest;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--selftest") {
      selftest = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) {
    return Usage();
  }
  if (!selftest.empty()) {
    struct SelfTest {
      const char* name;
      bool (*run)();
      const char* known_defect;  // why it fails today, if it is a known failure
    };
    const SelfTest tests[] = {
        {"anchor", AnchorTest, nullptr},
        {"determinism", DeterminismTest, nullptr},
        {"sealed_tx_long_run", SealedTxLongRunTest, "DmaSpace IOVAs reach the MSI window"}};
    std::string summary;
    bool ok = true, known = false;
    for (const SelfTest& test : tests) {
      if (selftest == test.name || selftest == "all") {
        known = true;
        bool pass = test.run();
        summary += std::string("selftest ") + test.name + ": " + (pass ? "PASS" : "FAIL");
        if (!pass && test.known_defect != nullptr) {
          summary += std::string(" (known failure: ") + test.known_defect + ")";
        }
        summary += "\n";
        ok = ok && pass;
      }
    }
    if (!known) {
      return Usage();
    }
    std::printf("%sselftest %s: %s\n", summary.c_str(), selftest.c_str(), ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), options.workload) ==
          std::end(kWorkloads) ||
      options.seconds <= 0) {
    return Usage();
  }
  RunResult result = Runner(options).Run();
  std::printf("# record %s\n", result.record.c_str());
  if (!result.correct) {
    std::fprintf(stderr, "correctness gate failed:%s\n", result.failure.c_str());
  }
  std::printf("%s\n", ResultJson(result, options.trace).c_str());
  return result.correct ? 0 : 1;
}
