#include "src/drivers/usb_hcd.h"

#include <cstring>

#include "src/base/bytes.h"
#include "src/base/log.h"

namespace sud::drivers {

using devices::UsbSetup;

Status UsbHcdDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  SUD_RETURN_IF_ERROR(env.PciEnableDevice());
  SUD_RETURN_IF_ERROR(env.PciSetMaster());
  SUD_RETURN_IF_ERROR(env.RequestIrq(1, [](uint16_t) { /* transfer-done; polling model */ }));

  Result<DmaRegion> schedule = env.DmaAllocCoherent(devices::kUsbTrbSize);
  Result<DmaRegion> data = env.DmaAllocCoherent(4096);
  if (!schedule.ok() || !data.ok()) {
    return Status(ErrorCode::kExhausted, "dma allocation failed");
  }
  schedule_ = schedule.value();
  data_ = data.value();

  SUD_RETURN_IF_ERROR(env.MmioWrite32(0, devices::kUsbRegListLo,
                                      static_cast<uint32_t>(schedule_.iova)));
  SUD_RETURN_IF_ERROR(env.MmioWrite32(0, devices::kUsbRegListHi,
                                      static_cast<uint32_t>(schedule_.iova >> 32)));
  SUD_RETURN_IF_ERROR(env.MmioWrite32(0, devices::kUsbRegListCount, 1));
  SUD_RETURN_IF_ERROR(env.MmioWrite32(0, devices::kUsbRegIms, devices::kUsbStsTransferDone));
  return env.MmioWrite32(0, devices::kUsbRegCmd, devices::kUsbCmdRun);
}

Result<uint32_t> UsbHcdDriver::RunTrb(uint8_t address, uint8_t endpoint, uint8_t type,
                                      uint32_t length, uint64_t buffer_iova,
                                      const uint8_t setup[8]) {
  Result<ByteSpan> trb = env_->DmaView(schedule_.iova, devices::kUsbTrbSize);
  if (!trb.ok()) {
    return trb.status();
  }
  uint8_t* raw = trb.value().data();
  std::memset(raw, 0, devices::kUsbTrbSize);
  raw[0] = address;
  raw[1] = endpoint;
  raw[2] = type;
  raw[3] = 0;  // pending
  StoreLe32(raw + 4, length);
  StoreLe64(raw + 8, buffer_iova);
  if (setup != nullptr) {
    std::memcpy(raw + 16, setup, 8);
  }
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kUsbRegDoorbell, 1));
  // Re-read the TRB for status (write-back by the controller).
  trb = env_->DmaView(schedule_.iova, devices::kUsbTrbSize);
  if (!trb.ok()) {
    return trb.status();
  }
  raw = trb.value().data();
  if (raw[3] != devices::kUsbTrbStatusOk) {
    return Status(ErrorCode::kUnavailable, "usb transfer failed (status " +
                                               std::to_string(int{raw[3]}) + ")");
  }
  return LoadLe32(raw + 24);
}

Result<uint32_t> UsbHcdDriver::ControlTransfer(uint8_t address, const UsbSetup& setup,
                                               uint64_t data_iova) {
  uint8_t raw_setup[8];
  raw_setup[0] = setup.bm_request_type;
  raw_setup[1] = setup.b_request;
  StoreLe16(raw_setup + 2, setup.w_value);
  StoreLe16(raw_setup + 4, setup.w_index);
  StoreLe16(raw_setup + 6, setup.w_length);
  ++stats_.control_transfers;
  return RunTrb(address, 0, devices::kUsbTrbSetup, setup.w_length, data_iova, raw_setup);
}

Result<int> UsbHcdDriver::Enumerate() {
  int configured = 0;
  for (int port = 0; port < 2; ++port) {
    Result<uint32_t> portsc =
        env_->MmioRead32(0, devices::kUsbRegPortsc0 + 4 * static_cast<uint64_t>(port));
    if (!portsc.ok() || (portsc.value() & devices::kUsbPortConnected) == 0) {
      continue;
    }
    // The standard dance, against default address 0.
    uint8_t address = next_address_++;
    UsbSetup set_address{0x00, devices::kUsbReqSetAddress, address, 0, 0};
    if (!ControlTransfer(0, set_address, 0).ok()) {
      continue;
    }
    UsbSetup get_device{0x80, devices::kUsbReqGetDescriptor,
                        static_cast<uint16_t>(devices::kUsbDescTypeDevice << 8), 0, 18};
    Result<uint32_t> got = ControlTransfer(address, get_device, data_.iova);
    if (!got.ok() || got.value() < 18) {
      continue;
    }
    Result<ByteSpan> descriptor = env_->DmaView(data_.iova, 18);
    if (!descriptor.ok()) {
      continue;
    }
    const uint8_t* d = descriptor.value().data();
    EnumeratedDevice info;
    info.address = address;
    info.device_class = d[4];
    info.vendor_id = LoadLe16(d + 8);
    info.product_id = LoadLe16(d + 10);
    UsbSetup set_config{0x00, devices::kUsbReqSetConfiguration, 1, 0, 0};
    info.configured = ControlTransfer(address, set_config, 0).ok();
    if (info.configured) {
      ++configured;
    }
    devices_.push_back(info);
    SUD_LOG(kInfo) << "usb: configured device " << Hex(info.vendor_id) << ":"
                   << Hex(info.product_id) << " at address " << int{address};
  }
  return configured;
}

Result<int> UsbHcdDriver::PollInput() {
  int events = 0;
  for (const EnumeratedDevice& device : devices_) {
    if (!device.configured || device.device_class != 0x03) {
      continue;  // not HID
    }
    ++stats_.interrupt_polls;
    Result<uint32_t> got =
        RunTrb(device.address, 1, devices::kUsbTrbIn, 8, data_.iova, nullptr);
    if (!got.ok() || got.value() < 3) {
      continue;
    }
    Result<ByteSpan> report = env_->DmaView(data_.iova, 8);
    if (!report.ok()) {
      continue;
    }
    uint8_t usage = report.value()[2];
    if (usage != 0) {
      env_->SubmitKeyEvent(usage);
      ++stats_.key_events;
      ++events;
    }
  }
  return events;
}

}  // namespace sud::drivers
