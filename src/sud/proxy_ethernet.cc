#include "src/sud/proxy_ethernet.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "src/base/fault_injector.h"
#include "src/base/log.h"
#include "src/devices/ether_link.h"
#include "src/kern/net_limits.h"

namespace sud {

namespace {

// One sealed-TX frame's grant set: the read-only external IOMMU mapping plus
// the skb whose DRAM frag pages back it. Each grant chunk's release closure
// holds a shared_ptr, so the group — and with it the mapping and the pages —
// lives exactly until the driver has freed every chunk (TX reap), however the
// chunks interleave with other frames. The epoch guard keeps a post-crash
// destruction (the dead pool's slots being reaped) from touching the
// successor instance's IO space: quarantined grants unmap nothing, they are
// already gone with the dead context, and only the kernel pages get reclaimed
// (by the skb's own release hook).
struct TxGrantGroup {
  SudDeviceContext* ctx;
  uint64_t region_iova;
  uint32_t epoch;
  kern::SkbPtr skb;

  TxGrantGroup(SudDeviceContext* ctx, uint64_t region_iova, uint32_t epoch)
      : ctx(ctx), region_iova(region_iova), epoch(epoch) {}
  TxGrantGroup(const TxGrantGroup&) = delete;
  TxGrantGroup& operator=(const TxGrantGroup&) = delete;
  ~TxGrantGroup() {
    if (ctx->bind_generation() == epoch) {
      (void)ctx->dma().Free(region_iova);
    }
  }
};

}  // namespace

EthernetProxy::EthernetProxy(kern::Kernel* kernel, SudDeviceContext* ctx, Options options)
    : kernel_(kernel), ctx_(ctx), options_(options) {
  ctx_->set_downcall_handler(
      [this](UchanMsg& msg, uint16_t shard) { HandleDowncall(msg, shard); });
  ctx_->set_downcall_flush_handler([this](uint16_t shard) { DeliverRxBundle(shard); });
}

Status EthernetProxy::Open() {
  UchanMsg msg;
  msg.opcode = kEthUpOpen;
  Result<UchanMsg> reply = ctx_->ctl().SendSync(std::move(msg));
  if (!reply.ok()) {
    return reply.status();  // interrupted/timed out: ifconfig reports an error
  }
  if (reply.value().error != 0) {
    return Status(static_cast<ErrorCode>(reply.value().error), "driver open failed");
  }
  return Status::Ok();
}

Status EthernetProxy::Stop() {
  UchanMsg msg;
  msg.opcode = kEthUpStop;
  Result<UchanMsg> reply = ctx_->ctl().SendSync(std::move(msg));
  if (!reply.ok()) {
    return reply.status();
  }
  return Status::Ok();
}

void EthernetProxy::NoteXmitFull() {
  if (consecutive_full_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      options_.hung_threshold) {
    stats_.hung_reports.fetch_add(1, std::memory_order_relaxed);
    SUD_LOG_RL(kWarning) << "ethernet driver not consuming buffers; reporting hung";
    consecutive_full_.store(0, std::memory_order_relaxed);
  }
}

// The MTU the interface actually gets for a driver-declared value: clamped
// by set_mtu (jumbo ceiling, like ndo_change_mtu) AND by what the TX staging
// pool can stage — one shared buffer for a non-SG driver, a bounded
// chain of them for an SG driver. A driver claiming more would otherwise
// lure the stack into frames the transmit path must truncate.
uint32_t EthernetProxy::DeclaredMtu(uint64_t declared) const {
  uint64_t stage_bytes = ctx_->pool().buffer_bytes();
  if (driver_sg_) {
    stage_bytes *= kern::kMaxChainFrags;
  }
  uint64_t pool_cap = stage_bytes > kern::kEthHeaderBytes
                          ? stage_bytes - kern::kEthHeaderBytes
                          : kern::kEthMinFrameBytes;
  return static_cast<uint32_t>(std::min<uint64_t>(declared, pool_cap));
}

// Chain records the skb's geometry would stage: each segment (head, then
// every frag) chunked by the pool buffer size.
size_t EthernetProxy::StagedChainRecords(const kern::Skb& skb) const {
  size_t buffer_bytes = ctx_->pool().buffer_bytes();
  size_t records = (skb.data_len() + buffer_bytes - 1) / buffer_bytes;
  for (size_t i = 0; i < skb.nr_frags(); ++i) {
    records += (skb.tx_frag(i).size() + buffer_bytes - 1) / buffer_bytes;
  }
  return records;
}

Status EthernetProxy::PrepareXmit(kern::SkbPtr& skb_ptr, UchanMsg* msg, uint16_t queue) {
  kern::Skb& skb = *skb_ptr;
  CpuModel& cpu = kernel_->machine().cpu();
  size_t max_records = driver_sg_ ? kern::kMaxChainFrags : 1;
  if (!skb.is_linear() && (!driver_sg_ || StagedChainRecords(skb) > max_records)) {
    // Linearize fallback: non-SG drivers always, and — like the real stack
    // linearizing skbs over MAX_SKB_FRAGS — frames whose fragment geometry
    // (many tiny frags) would burst the chain cap even for an SG driver.
    // One extra charged full-frame pass, the copy the SG chain deletes. A
    // frame too big to linearize stays as it is; staging then drops it.
    cpu.ChargeBytes(kAccountKernel, cpu.costs().per_byte_copy, skb.total_len());
    if (skb.Linearize(ctx_->pool().buffer_bytes() * max_records) && netdev_ != nullptr) {
      netdev_->stats().tx_linearized++;
    }
  }
  Status staged = StageXmit(skb_ptr, max_records, msg, queue);
  if (!staged.ok()) {
    stats_.xmit_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  return staged;
}

Status EthernetProxy::StageXmit(kern::SkbPtr& skb_ptr, size_t max_records, UchanMsg* msg,
                                uint16_t queue) {
  kern::Skb& skb = *skb_ptr;
  CpuModel& cpu = kernel_->machine().cpu();
  size_t buffer_bytes = ctx_->pool().buffer_bytes();
  // Sealed TX: DRAM-backed frags (page-cache pages the kernel owns) cross as
  // read-only grants — one external mapping spanning the frame's frag pages,
  // per-chunk grant handles in the ordinary fragment records — instead of
  // staging copies. Read-only IS the seal: a driver-directed device write to
  // a granted page faults in the IOMMU. A mapping failure degrades to the
  // counted staging-copy fallback, never a dropped frame.
  std::shared_ptr<TxGrantGroup> group;
  uint64_t grant_lo = 0;
  if (options_.sealed_tx && skb.has_dram_frags()) {
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    for (size_t i = 0; i < skb.nr_frags(); ++i) {
      uint64_t paddr = skb.tx_frag_paddr(i);
      if (paddr == 0) {
        continue;
      }
      lo = std::min(lo, hw::PageAlignDown(paddr));
      hi = std::max(hi, hw::PageAlignUp(paddr + skb.tx_frag(i).size()));
    }
    Result<DmaRegion> region = ctx_->dma().MapExternal(lo, hi - lo);
    if (region.ok()) {
      group = std::make_shared<TxGrantGroup>(ctx_, region.value().iova,
                                             ctx_->bind_generation());
      grant_lo = lo;
    } else {
      stats_.tx_grant_fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // One record per pool-buffer-sized chunk of each segment (head, then every
  // frag): a copy into a STANDARD pool buffer, or — for a granted DRAM frag —
  // a grant handle that resolves (driver-side, unchanged) to the granted
  // IOVA inside the frame's external mapping, with no memcpy.
  std::array<wire::XmitFrag, kern::kMaxChainFrags> frags;
  size_t count = 0;
  size_t copied_bytes = 0;  // bytes that paid a staging memcpy
  Status staging = Status::Ok();
  auto stage_segment = [&](ConstByteSpan segment, uint64_t paddr) {
    bool grant = group != nullptr && paddr != 0;
    for (size_t off = 0; off < segment.size() && staging.ok(); off += buffer_bytes) {
      if (count == max_records) {
        // Never truncate: a frame the records cannot hold is dropped whole
        // (only reachable by handing the interface frames above its MTU —
        // the MTU itself is clamped to pool capacity at registration).
        staging = Status(ErrorCode::kInvalidArgument, "frame exceeds staging buffer");
        return;
      }
      uint32_t len = static_cast<uint32_t>(std::min(segment.size() - off, buffer_bytes));
      Result<int32_t> id =
          grant ? ctx_->pool().GrantExternal(group->region_iova + (paddr + off - grant_lo), len,
                                             [group]() mutable { group.reset(); })
                : ctx_->pool().Alloc();
      if (!id.ok()) {
        if (grant) {
          staging = id.status();
          return;
        }
        if (netdev_ != nullptr) {
          netdev_->stats().tx_no_buffer++;
        }
        NoteXmitFull();
        staging = Status(ErrorCode::kQueueFull, "no shared buffers (driver slow or hung)");
        return;
      }
      frags[count++] = wire::XmitFrag{id.value(), len};
      if (grant) {
        stats_.tx_grants.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Result<ByteSpan> buffer = ctx_->pool().Buffer(id.value());
      if (!buffer.ok()) {
        staging = buffer.status();  // torn-down pool: the id is freed below
        return;
      }
      std::memcpy(buffer.value().data(), segment.data() + off, len);
      copied_bytes += len;
    }
  };
  stage_segment(skb.span(), 0);
  for (size_t i = 0; i < skb.nr_frags() && staging.ok(); ++i) {
    stage_segment(skb.tx_frag(i), skb.tx_frag_paddr(i));
  }
  if (staging.ok() && count == 0) {
    staging = Status(ErrorCode::kInvalidArgument, "empty frame");
  }
  if (!staging.ok()) {
    for (size_t i = 0; i < count; ++i) {
      // Freeing a minted grant fires its release closure: the group's
      // refcount unwinds with the ids, and the external mapping dies with
      // the local reference below.
      ctx_->pool().Free(frags[i].pool_id);
    }
    return staging;
  }
  if (!options_.zero_copy) {
    // Ablation: model an intermediate bounce buffer (one extra pass).
    cpu.ChargeBytes(kAccountKernel, cpu.costs().per_byte_copy, skb.total_len());
  }
  // One staging pass over the copied bytes. Granted bytes pay nothing: that
  // is the copy sealed TX deletes.
  cpu.ChargeBytes(kAccountKernel, cpu.costs().per_byte_copy, copied_bytes);
  wire::EncodeXmit(queue, std::span<const wire::XmitFrag>(frags.data(), count), msg);
  if (group != nullptr) {
    // The frag pages must outlive the device's reads: the frame's skb moves
    // into the grant group and dies when the last grant chunk is freed.
    group->skb = std::move(skb_ptr);
    stats_.tx_grant_frames.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

size_t EthernetProxy::StartXmit(std::span<kern::SkbPtr> skbs, uint16_t queue) {
  if (queue >= ctx_->num_queues()) {
    queue = 0;
  }
  // Stage every frame first, so the whole burst crosses in one enqueue. One
  // message lives inline, so a one-frame transmit allocates nothing; longer
  // bursts spill to a vector.
  UchanMsg one;
  std::vector<UchanMsg> spill;
  UchanMsg* msgs = &one;
  if (skbs.size() > 1) {
    spill.resize(skbs.size());
    msgs = spill.data();
  }
  size_t staged = 0;
  Status staging = Status::Ok();
  while (staged < skbs.size()) {
    staging = PrepareXmit(skbs[staged], &msgs[staged], queue);
    if (!staging.ok()) {
      break;  // the failing frame was counted in PrepareXmit
    }
    ++staged;
  }
  if (!staging.ok()) {
    // The tail behind the failing frame is dropped unstaged. Behind an empty
    // pool each of those frames would have met the same backpressure, so each
    // counts as the failing one did (drop + hung detection).
    size_t unstaged = skbs.size() - staged - 1;
    stats_.xmit_dropped.fetch_add(unstaged, std::memory_order_relaxed);
    for (size_t i = 0; i < unstaged && staging.code() == ErrorCode::kQueueFull; ++i) {
      if (netdev_ != nullptr) {
        netdev_->stats().tx_no_buffer++;
      }
      NoteXmitFull();
    }
  }
  if (staged == 0) {
    return 0;
  }
  stats_.xmit_batches.fetch_add(1, std::memory_order_relaxed);
  Uchan& shard = ctx_->ctl(queue);
  size_t enqueued = shard.SendAsync({msgs, staged});
  // The ring left the messages it did not take intact: free their records.
  for (size_t i = enqueued; i < staged; ++i) {
    for (size_t r = 0; r < wire::XmitFragCount(msgs[i]); ++r) {
      ctx_->pool().Free(wire::DecodeXmitFrag(msgs[i], r).pool_id);
    }
  }
  size_t dropped = staged - enqueued;
  stats_.xmit_dropped.fetch_add(dropped, std::memory_order_relaxed);
  stats_.xmit_upcalls.fetch_add(enqueued, std::memory_order_relaxed);
  if (dropped == 0) {
    consecutive_full_.store(0, std::memory_order_relaxed);
  } else if (!shard.is_shutdown()) {
    NoteXmitFull();  // a full ring, not a dead channel
  }
  return enqueued;
}

Result<std::string> EthernetProxy::Ioctl(uint32_t cmd) {
  UchanMsg msg;
  msg.opcode = kEthUpIoctl;
  msg.args[0] = cmd;
  Result<UchanMsg> reply = ctx_->ctl().SendSync(std::move(msg));
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply.value().error != 0) {
    return Status(static_cast<ErrorCode>(reply.value().error), "ioctl failed in driver");
  }
  return std::string(reply.value().inline_data.begin(), reply.value().inline_data.end());
}

void EthernetProxy::OnDriverRestart() {
  consecutive_full_.store(0, std::memory_order_relaxed);
  // The replacement driver binds a FRESH uchan set whose seqs restart at 1:
  // the dedup watermarks must restart with them.
  last_rx_seq_.fill(0);
  for (auto& bundle : rx_bundle_) {
    // Packets whose NAPI flush died with the driver: dropping them here is
    // part of the bounded, counted crash loss. Guard copies are private
    // skbs; sealed (extern) skbs fire their release hooks right here, and
    // the epoch guard in ReleaseSealedPages turns each into a counted
    // quarantine instead of an unseal into the dead context's IO space.
    bundle.clear();
  }
}

void EthernetProxy::HandleDowncall(UchanMsg& msg, uint16_t shard) {
  // Schema-certify the shape (opcode known, control lane on shard 0, args in
  // their static bounds, payload well-formed, MAC exactly six bytes) before
  // any handler parses a byte. Semantic checks — DMA-space lookups, the
  // interface's declared MTU, queue-count clamps — stay in the handlers
  // below, with their historical counters.
  wire::Malform verdict = wire::ValidateStructure(wire::Dir::kDown, msg, shard);
  if (verdict != wire::Malform::kNone) {
    RejectDowncall(msg, shard, verdict);
    return;
  }
  switch (msg.opcode) {
    case kEthDownRegisterNetdev: {
      // The driver's advertised queue count, clamped to the shards the
      // kernel actually exported: a malicious count cannot grow the
      // attack surface.
      uint16_t queues = static_cast<uint16_t>(msg.args[0]);
      if (queues == 0) {
        queues = 1;
      }
      if (queues > ctx_->num_queues()) {
        if (netdev_ != nullptr) {
          netdev_->stats().driver_errors++;
        }
        SUD_LOG(kAttack) << "register_netdev claims " << queues
                         << " queues but the device context has " << ctx_->num_queues();
        queues = static_cast<uint16_t>(ctx_->num_queues());
      }
      // Feature bits: only bits the kernel knows are honoured; everything
      // else a driver claims is ignored.
      driver_sg_ = (msg.args[2] & kEthFeatureSg) != 0;
      // A register_netdev marks a new driver generation speaking a freshly
      // bound uchan whose seqs restart at 1 — the netif_rx dedup watermarks
      // must restart with it. The supervisor's OnDriverRestart also resets
      // them, but an administrator's manual kill+start bypasses it.
      last_rx_seq_.fill(0);
      if (netdev_ != nullptr) {
        // A restarted driver re-registering: keep the existing interface and
        // refresh the MAC (shadow-driver-style recovery, Section 2).
        netdev_->set_dev_addr(msg.inline_data.data());
        netdev_->set_num_queues(queues);
        netdev_->set_sg(driver_sg_);
        netdev_->set_mtu(DeclaredMtu(msg.args[1]));
        msg.error = 0;
        return;
      }
      std::string name = kernel_->net().NextName("eth");
      Result<kern::NetDevice*> netdev =
          kernel_->net().RegisterNetdev(name, msg.inline_data.data(), this);
      if (!netdev.ok()) {
        msg.error = static_cast<int32_t>(netdev.status().code());
        return;
      }
      netdev_ = netdev.value();
      netdev_->set_num_queues(queues);
      netdev_->set_sg(driver_sg_);
      netdev_->set_mtu(DeclaredMtu(msg.args[1]));
      msg.error = 0;
      return;
    }
    case kEthDownNetifRx:
      HandleNetifRx(msg, shard);
      return;
    case kEthDownSetCarrier:
      // Shared-memory mirror update (Section 3.3): ordered with respect to
      // other control downcalls because it travels the same (control) shard.
      if (netdev_ != nullptr) {
        netdev_->set_carrier(msg.args[0] != 0);
      }
      msg.error = 0;
      return;
    case kEthDownFreeBuffer:
      HandleFreeBuffer(msg);
      return;
    case kOpInterruptAck:
      // The ack is for the queue whose shard carried it — not for a queue
      // index the driver could lie about.
      msg.error = static_cast<int32_t>(ctx_->InterruptAck(shard).code());
      return;
    case kOpRequestRegion:
      msg.error = static_cast<int32_t>(ctx_->RequestIoRegion().code());
      return;
    default:
      SUD_LOG(kWarning) << "ethernet proxy: unknown downcall opcode " << msg.opcode;
      msg.error = static_cast<int32_t>(ErrorCode::kInvalidArgument);
      return;
  }
}

void EthernetProxy::HandleFreeBuffer(UchanMsg& msg) {
  // Unified layout, schema-certified: args[0] ids in the payload (one
  // message per TX reap pass; a single completion is a batch of one).
  size_t count = wire::FreeBufferCount(msg);
  if (count > 1) {
    stats_.free_batches.fetch_add(1, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < count; ++i) {
    // Bogus ids are tolerated and counted by the pool (double_frees).
    ctx_->pool().Free(wire::DecodeFreeBufferId(msg, i));
  }
  msg.error = 0;
}

bool EthernetProxy::RxDowncallProlog(UchanMsg& msg, uint16_t shard) {
  if (msg.seq != 0 && msg.seq <= last_rx_seq_[shard]) {
    // Duplicated delivery (channel fault or replay): the shard's seqs are
    // strictly increasing, so a non-advancing one was already handled.
    stats_.rx_dups_rejected.fetch_add(1, std::memory_order_relaxed);
    msg.error = 0;  // tolerated, not a downcall failure
    return false;
  }
  last_rx_seq_[shard] = msg.seq;
  stats_.rx_downcalls.fetch_add(1, std::memory_order_relaxed);
  if (netdev_ == nullptr) {
    msg.error = static_cast<int32_t>(ErrorCode::kUnavailable);
    return false;
  }
  return true;
}

void EthernetProxy::RejectDowncall(UchanMsg& msg, uint16_t shard, wire::Malform verdict) {
  wire_rejects_.Count(wire::Dir::kDown, msg.opcode);
  if (verdict == wire::Malform::kUnknownOpcode) {
    SUD_LOG(kWarning) << "ethernet proxy: unknown downcall opcode " << msg.opcode;
    msg.error = static_cast<int32_t>(ErrorCode::kInvalidArgument);
    return;
  }
  switch (msg.opcode) {
    case kEthDownNetifRx: {
      // A structurally malformed delivery leaves the same books behind as a
      // semantically rejected one: the dedup watermark advances, the
      // downcall counter bumps, and the attack lands in rx_rejected.
      if (!RxDowncallProlog(msg, shard)) {
        return;
      }
      stats_.rx_rejected.fetch_add(1, std::memory_order_relaxed);
      netdev_->stats().driver_errors++;
      SUD_LOG(kAttack) << "netif_rx downcall structurally malformed ("
                       << wire::MalformName(verdict) << ")";
      msg.error = static_cast<int32_t>(ErrorCode::kInvalidArgument);
      return;
    }
    case kEthDownFreeBuffer: {
      // Tolerate-and-salvage: a count that disagrees with the payload is a
      // malformed (malicious) message, but the ids the payload actually
      // carries are real completions — free them or the pool leaks on the
      // driver's word alone.
      if (netdev_ != nullptr) {
        netdev_->stats().driver_errors++;
      }
      SUD_LOG(kAttack) << "free-buffer batch count " << msg.args[0]
                       << " disagrees with payload (" << wire::FreeBufferPayloadCount(msg)
                       << " ids)";
      stats_.free_batches.fetch_add(1, std::memory_order_relaxed);
      size_t salvage = wire::FreeBufferPayloadCount(msg);
      for (size_t i = 0; i < salvage; ++i) {
        ctx_->pool().Free(wire::DecodeFreeBufferId(msg, i));
      }
      msg.error = 0;
      return;
    }
    default:
      SUD_LOG(kAttack) << "ethernet proxy: malformed downcall " << msg.opcode << " rejected ("
                       << wire::MalformName(verdict) << ")";
      msg.error = static_cast<int32_t>(ErrorCode::kInvalidArgument);
      return;
  }
}

void EthernetProxy::HandleNetifRx(UchanMsg& msg, uint16_t shard) {
  if (!RxDowncallProlog(msg, shard)) {
    return;
  }
  // The downcall carries the frame as (iova, len) fragments in the driver's
  // own DMA space: the packet sits in the RX buffers the device DMA'd it into
  // (zero-copy, Section 3.1.2). The schema certified the list's SHAPE (count
  // vs payload vs the chain cap, per-fragment lengths, the jumbo total); the
  // fragments are still driver-marshalled, so re-validate the SEMANTIC facts
  // before a single byte is copied — every fragment within the driver's DMA
  // mappings (never kernel addresses or other devices' buffers), the total
  // within the INTERFACE's maximum frame (the MTU the driver declared at
  // registration, not the global jumbo ceiling).
  auto reject = [&](const char* why) {
    stats_.rx_rejected.fetch_add(1, std::memory_order_relaxed);
    netdev_->stats().driver_errors++;
    SUD_LOG(kAttack) << "netif_rx downcall rejected: " << why;
    msg.error = static_cast<int32_t>(ErrorCode::kInvalidArgument);
  };
  size_t count = wire::RxFragCount(msg);
  size_t max_frame = netdev_->max_frame_bytes();
  std::array<ByteSpan, kern::kMaxChainFrags>& views = rx_views_[shard];
  uint64_t total = 0;
  for (size_t i = 0; i < count; ++i) {
    DmaFrag frag = wire::DecodeRxFrag(msg, i);
    total += frag.len;
    if (total > max_frame) {
      reject("fragment lengths exceed the interface frame maximum");
      return;
    }
    Result<ByteSpan> view = ctx_->dma().HostView(frag.iova, frag.len);
    if (!view.ok()) {
      reject("fragment outside the driver's dma space");
      return;
    }
    views[i] = view.value();
  }
  msg.error = 0;  // a packet dropped by checksum or firewall is not a downcall failure
  CpuModel& cpu = kernel_->machine().cpu();

  // Sealed zero-copy and the vulnerable check-then-copy ablation both work
  // on ONE shared buffer; a multi-fragment frame always takes the guard copy.
  bool force_guard = false;
  if (count == 1 && options_.sealed_delivery) {
    if (TrySealedDeliver(wire::DecodeRxFrag(msg, 0).iova, views[0], shard)) {
      return;
    }
    // The seal did not happen (unaligned buffer, injected or genuine
    // failure): degrade to the guard copy — counted, and FORCED even in the
    // vulnerable ablation, so a failed seal never turns into an unverified
    // shared-byte delivery.
    stats_.sealed_fallback_copies.fetch_add(1, std::memory_order_relaxed);
    force_guard = true;
  }
  if (count == 1 && !options_.guard_copy && !force_guard) {
    // VULNERABLE ordering (ablation/attack demonstration): verdict computed
    // over live shared memory, then the attacker flips it, then we copy.
    ByteSpan shared = views[0];
    kern::PacketView pre_view{ConstByteSpan(shared.data(), shared.size())};
    cpu.ChargeBytes(kAccountKernel, cpu.costs().per_byte_checksum, shared.size());
    if (!pre_view.valid() || !pre_view.ChecksumOk() ||
        !kernel_->net().firewall().Accept(pre_view)) {
      netdev_->stats().rx_dropped++;
      return;
    }
    if (toctou_hook_) {
      toctou_hook_(shared);  // attacker wins the race
    }
    kern::SkbPtr skb = kern::MakeSkb(ConstByteSpan(shared.data(), shared.size()));
    cpu.ChargeBytes(kAccountKernel, cpu.costs().per_byte_copy, shared.size());
    // Deliver directly, bypassing the second check (that is the bug this
    // configuration demonstrates).
    skb->checksum_verified = true;
    netdev_->stats().rx_packets++;
    if (netdev_->rx_sink()) {
      netdev_->rx_sink()(*skb);
    }
    return;
  }
  // Safe ordering: copy out of shared memory *first*, into ONE private skb,
  // then let the stack filter the private copy. The copy is fused with the
  // checksum pass in the model (one charged pass, Section 3.1.2); a
  // one-fragment frame also fuses them on the simulator's own clock
  // (AssignAndVerifyChecksum copies and sums in a single traversal), and the
  // stack skips its redundant checksum pass for skbs the proxy verified.
  auto skb = std::make_unique<kern::Skb>();
  bool checksum_ok = false;
  if (count == 1) {
    checksum_ok = skb->AssignAndVerifyChecksum(views[0]);
  } else {
    for (size_t i = 0; i < count; ++i) {
      (void)skb->AppendFrag(views[i], max_frame);  // fits: the total is checked above
    }
    checksum_ok = skb->VerifyChecksumPrivate();
  }
  stats_.guard_copies.fetch_add(1, std::memory_order_relaxed);
  if (options_.fuse_guard_with_checksum) {
    cpu.ChargeBytes(kAccountKernel, cpu.costs().per_byte_checksum, total);
  } else {
    cpu.ChargeBytes(kAccountKernel, cpu.costs().per_byte_copy + cpu.costs().per_byte_checksum,
                    total);
  }
  if (toctou_hook_) {
    // Attacker rewrites the shared buffer now — too late, we own a copy.
    toctou_hook_(views[0]);
  }
  FinishRxSkb(std::move(skb), checksum_ok, static_cast<size_t>(total), shard);
}

bool EthernetProxy::TrySealedDeliver(uint64_t iova, ByteSpan shared, uint16_t shard) {
  // Page-granular revocation needs page-isolated RX buffers: a seal covering
  // a neighbouring in-flight buffer's bytes would block the device's own
  // writes to it. Only page-aligned deliveries qualify (the single-queue
  // 16 KB arena layout; an 8-queue arena's 2 KB buffers never will).
  if (!hw::IsPageAligned(iova)) {
    return false;
  }
  // Injected seal failure (fault site "iommu.seal"): nothing sealed, nothing
  // delivered — the caller degrades to the counted guard-copy fallback.
  if (SUD_FAULT_POINT("iommu.seal")) {
    return false;
  }
  hw::Iommu* iommu = ctx_->dma().iommu();
  uint16_t source = ctx_->source_id();
  uint32_t epoch = ctx_->bind_generation();
  uint64_t len = hw::PageAlignUp(shared.size());
  {
    std::lock_guard<std::mutex> lock(seal_mu_);
    Status sealed = iommu->SealWrite(source, iova, len);
    if (!sealed.ok()) {
      return false;
    }
    for (uint64_t off = 0; off < len; off += hw::kPageSize) {
      SealRef& ref = sealed_pages_[iova + off];
      ++ref.refs;
      ref.epoch = epoch;
    }
  }
  auto skb = std::make_unique<kern::Skb>();
  skb->AssignExtern(shared.data(), shared.size(),
                    [this, iova, len, epoch] { ReleaseSealedPages(iova, len, epoch); });
  if (toctou_hook_) {
    // The verdict window, adversarially: the attacker fires its rewrite NOW,
    // between the seal and the checksum — and hits the seal instead of the
    // verdict. (The guard-copy path survives this by owning a copy; this
    // path survives it by revocation.)
    toctou_hook_(shared);
  }
  // Verify the transport checksum IN PLACE over the sealed bytes. The seal
  // replaces the private copy as the TOCTOU guarantee, so the charged pass
  // is checksum-only — exactly what the fused guard copy charged. The copy
  // itself is what this path deletes.
  bool checksum_ok = skb->VerifyChecksumPrivate();
  CpuModel& cpu = kernel_->machine().cpu();
  cpu.ChargeBytes(kAccountKernel, cpu.costs().per_byte_checksum, shared.size());
  stats_.sealed_deliveries.fetch_add(1, std::memory_order_relaxed);
  size_t frame_bytes = skb->data_len();
  FinishRxSkb(std::move(skb), checksum_ok, frame_bytes, shard);
  return true;
}

void EthernetProxy::ReleaseSealedPages(uint64_t base, uint64_t len, uint32_t epoch) {
  std::lock_guard<std::mutex> lock(seal_mu_);
  for (uint64_t off = 0; off < len; off += hw::kPageSize) {
    uint64_t page = base + off;
    auto it = sealed_pages_.find(page);
    if (it == sealed_pages_.end() || it->second.epoch != epoch) {
      continue;  // a fresh epoch owns this page now; not ours to touch
    }
    if (--it->second.refs > 0) {
      continue;  // another live skb still references the page
    }
    sealed_pages_.erase(it);
    if (ctx_->bind_generation() != epoch) {
      // The epoch quarantine, extended to seals: this skb outlived its
      // driver instance. The dead context's IO space is already reclaimed
      // (or a successor's is live in its place) — crash-reap never unseals
      // across the epoch.
      stats_.sealed_quarantined.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Status unsealed = ctx_->dma().iommu()->UnsealWrite(ctx_->source_id(), page, hw::kPageSize);
    if (!unsealed.ok()) {
      // Same-generation teardown window (driver killed, successor not yet
      // bound): the IOMMU context is gone and the page leaves quarantined.
      stats_.sealed_quarantined.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void EthernetProxy::FinishRxSkb(kern::SkbPtr skb, bool checksum_ok, size_t frame_bytes,
                                uint16_t shard) {
  CpuModel& cpu = kernel_->machine().cpu();
  cpu.Charge(kAccountKernel, cpu.costs().skb_alloc + cpu.costs().stack_work_per_pkt);
  if (!checksum_ok) {
    // Same drop accounting the stack's own pass would have applied (the
    // skb_alloc + stack charge above still applies first, as it did when
    // these packets died inside NetifRx).
    if (frame_bytes < kern::kPacketMinSize) {
      netdev_->stats().rx_dropped++;
      netdev_->stats().driver_errors++;
      SUD_LOG_RL(kWarning) << netdev_->name() << ": driver delivered runt packet, dropping";
    } else {
      netdev_->stats().rx_bad_checksum++;
      netdev_->stats().rx_dropped++;
    }
    return;
  }
  // NAPI-style: the private copy joins the shard's poll bundle; the whole
  // array enters the stack once, at the end of this kernel entry.
  rx_bundle_[shard].push_back(std::move(skb));
}

void EthernetProxy::DeliverRxBundle(uint16_t shard) {
  if (rx_bundle_[shard].empty() || netdev_ == nullptr) {
    return;
  }
  std::vector<kern::SkbPtr> bundle;
  bundle.swap(rx_bundle_[shard]);
  stats_.rx_bundles.fetch_add(1, std::memory_order_relaxed);
  if (hold_rx_.load(std::memory_order_relaxed)) {
    // Test seam: the modeled socket queue retains the delivery — sealed skbs
    // stay alive (and their pages sealed) past this kernel entry.
    std::lock_guard<std::mutex> lock(hold_mu_);
    for (kern::SkbPtr& skb : bundle) {
      held_rx_.push_back(std::move(skb));
    }
    return;
  }
  (void)kernel_->net().NetifRxBatch(netdev_, std::move(bundle), shard);
  if (options_.sealed_delivery) {
    // Skbs died inside the batch; their unseals queued their IOTLB
    // invalidations (when the IOMMU batches). One sync here amortizes the
    // shootdown over the whole NAPI bundle — the Section 6 answer to the
    // per-packet invalidation cost that made the paper pick the copy.
    ctx_->dma().iommu()->SyncInvalidations();
  }
}

}  // namespace sud
