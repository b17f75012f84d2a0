#include "src/kern/netdev.h"

#include <cstring>

#include "src/base/log.h"

namespace sud::kern {

bool Firewall::Accept(const PacketView& packet) const {
  if (!packet.valid()) {
    ++rejected_;
    return false;
  }
  if (denied_ports_.count(packet.dst_port()) != 0) {
    ++rejected_;
    return false;
  }
  ++accepted_;
  return true;
}

NetDevice::NetDevice(std::string name, const uint8_t mac[6], NetDeviceOps* ops)
    : name_(std::move(name)), ops_(ops) {
  std::memcpy(mac_.data(), mac, 6);
}

void NetDevice::set_dev_addr(const uint8_t mac[6]) { std::memcpy(mac_.data(), mac, 6); }

Result<NetDevice*> NetSubsystem::RegisterNetdev(const std::string& name, const uint8_t mac[6],
                                                NetDeviceOps* ops) {
  if (devices_.count(name) != 0) {
    return Status(ErrorCode::kAlreadyExists, "netdev " + name + " already registered");
  }
  if (ops == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "null netdev ops");
  }
  auto device = std::make_unique<NetDevice>(name, mac, ops);
  NetDevice* ptr = device.get();
  devices_[name] = std::move(device);
  SUD_LOG(kInfo) << "registered netdev " << name;
  return ptr;
}

Status NetSubsystem::UnregisterNetdev(const std::string& name) {
  auto it = devices_.find(name);
  if (it == devices_.end()) {
    return Status(ErrorCode::kNotFound, "no netdev " + name);
  }
  devices_.erase(it);
  return Status::Ok();
}

NetDevice* NetSubsystem::Find(const std::string& name) {
  auto it = devices_.find(name);
  return it == devices_.end() ? nullptr : it->second.get();
}

Status NetSubsystem::BringUp(const std::string& name) {
  NetDevice* device = Find(name);
  if (device == nullptr) {
    return Status(ErrorCode::kNotFound, "no netdev " + name);
  }
  if (device->up_) {
    return Status::Ok();
  }
  SUD_RETURN_IF_ERROR(device->ops()->Open());
  device->up_ = true;
  return Status::Ok();
}

Status NetSubsystem::BringDown(const std::string& name) {
  NetDevice* device = Find(name);
  if (device == nullptr) {
    return Status(ErrorCode::kNotFound, "no netdev " + name);
  }
  if (!device->up_) {
    return Status::Ok();
  }
  device->up_ = false;
  return device->ops()->Stop();
}

Status NetSubsystem::Transmit(const std::string& name, SkbPtr skb) {
  NetDevice* device = Find(name);
  if (device == nullptr) {
    return Status(ErrorCode::kNotFound, "no netdev " + name);
  }
  return Transmit(device, std::move(skb));
}

Status NetSubsystem::Transmit(NetDevice* device, SkbPtr skb) {
  Result<size_t> accepted = TransmitFrames(device, {&skb, 1});
  if (!accepted.ok()) {
    return accepted.status();
  }
  if (accepted.value() == 0) {
    return Status(ErrorCode::kQueueFull, device->name() + " dropped the frame");
  }
  return Status::Ok();
}

Result<size_t> NetSubsystem::TransmitBatch(const std::string& name, std::vector<SkbPtr> skbs) {
  NetDevice* device = Find(name);
  if (device == nullptr) {
    return Status(ErrorCode::kNotFound, "no netdev " + name);
  }
  return TransmitBatch(device, std::move(skbs));
}

Result<size_t> NetSubsystem::TransmitBatch(NetDevice* device, std::vector<SkbPtr> skbs) {
  return TransmitFrames(device, skbs);
}

Result<size_t> NetSubsystem::TransmitFrames(NetDevice* device, std::span<SkbPtr> skbs) {
  if (!device->up_) {
    device->stats().tx_dropped += skbs.size();
    return Status(ErrorCode::kUnavailable, device->name() + " is down");
  }
  auto xmit = [device](std::span<SkbPtr> frames, uint16_t queue) {
    size_t accepted = device->ops()->StartXmit(frames, queue);
    device->queue_stats(queue).tx_packets += accepted;
    return accepted;
  };
  uint16_t queues = device->num_queues();
  size_t accepted = 0;
  if (skbs.size() == 1 || queues <= 1) {
    // One frame, or one queue: the whole burst goes in one driver call.
    if (!skbs.empty()) {
      accepted = xmit(skbs, FlowQueue(skbs.front()->span(), queues));
    }
  } else {
    // RSS-style transmit steering: partition the burst by flow hash, one
    // StartXmit per non-empty queue. Flows stay ordered (a flow always
    // hashes to the same queue); cross-flow order across queues is
    // deliberately unordered, as on real multi-queue hardware.
    std::array<std::vector<SkbPtr>, kNetMaxQueues> per_queue;
    for (SkbPtr& skb : skbs) {
      uint16_t queue = FlowQueue(skb->span(), queues);
      per_queue[queue].push_back(std::move(skb));
    }
    for (uint16_t q = 0; q < queues; ++q) {
      if (!per_queue[q].empty()) {
        accepted += xmit(per_queue[q], q);
        per_queue[q].clear();  // frames the driver left are freed before the next queue's call
      }
    }
  }
  device->stats().tx_packets += accepted;
  device->stats().tx_dropped += skbs.size() - accepted;
  return accepted;
}

size_t NetSubsystem::NetifRxBatch(NetDevice* device, std::vector<SkbPtr> skbs, uint16_t queue) {
  size_t accepted = 0;
  for (SkbPtr& skb : skbs) {
    if (NetifRx(device, std::move(skb), queue).ok()) {
      ++accepted;
    }
  }
  return accepted;
}

Status NetSubsystem::NetifRx(NetDevice* device, SkbPtr skb, uint16_t queue) {
  if (device == nullptr || skb == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "netif_rx: null device/skb");
  }
  PacketView view = skb->view();
  if (!view.valid()) {
    device->stats().rx_dropped++;
    device->stats().driver_errors++;
    SUD_LOG_RL(kWarning) << device->name() << ": driver delivered runt packet, dropping";
    return Status(ErrorCode::kInvalidArgument, "runt packet");
  }
  // Checksum pass. Under SUD the proxy fuses its guard-copy with this pass
  // (Section 3.1.2) and delivers the skb pre-verified, so by the time the
  // verdict below is computed the driver can no longer alter the bytes —
  // and the stack does not traverse them a second time.
  if (!skb->checksum_verified) {
    if (!view.ChecksumOk()) {
      device->stats().rx_bad_checksum++;
      device->stats().rx_dropped++;
      return Status(ErrorCode::kInvalidArgument, "bad checksum");
    }
    skb->checksum_verified = true;
  }
  if (!firewall_.Accept(view)) {
    device->stats().rx_dropped++;
    return Status(ErrorCode::kPermissionDenied, "firewall rejected packet");
  }
  if (FlowTable* flows = device->flow_table()) {
    flows->Record(FlowHash(skb->span()), queue);
  }
  if (device->rx_sink()) {
    device->rx_sink()(*skb);
  }
  // Counted after the sink, so a reader that sees rx_packets reach N also
  // sees everything the sink did with the first N frames.
  device->stats().rx_packets++;
  if (queue < kNetMaxQueues) {
    device->queue_stats(queue).rx_packets++;
  }
  return Status::Ok();
}

}  // namespace sud::kern
