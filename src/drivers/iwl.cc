#include "src/drivers/iwl.h"

#include <cstring>

#include "src/base/log.h"
#include "src/kern/wireless.h"

namespace sud::drivers {

Status IwlDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  SUD_RETURN_IF_ERROR(env.PciEnableDevice());
  SUD_RETURN_IF_ERROR(env.PciSetMaster());

  // Scan results land here via device DMA; 64 records is plenty of air.
  Result<DmaRegion> results = env.DmaAllocCoherent(64 * devices::kBssRecordSize);
  if (!results.ok()) {
    return results.status();
  }
  scan_results_ = results.value();

  SUD_RETURN_IF_ERROR(env.RequestIrq(1, [this](uint16_t) { IrqHandler(); }));
  SUD_RETURN_IF_ERROR(env.MmioWrite32(0, devices::kWifiRegIms,
                                      devices::kWifiIntScanDone | devices::kWifiIntBssChanged |
                                          devices::kWifiIntTxDone));

  uml::WifiDriverOps ops;
  ops.scan = [this]() { return Scan(); };
  ops.associate = [this](const std::string& ssid) { return Associate(ssid); };
  ops.enable_features = [this](uint32_t features) { EnableFeatures(features); };
  uint32_t supported = kern::kWifiFeatureShortPreamble | kern::kWifiFeatureQos |
                       kern::kWifiFeaturePowerSave;
  SUD_RETURN_IF_ERROR(env.RegisterWifi(supported, std::move(ops)));

  // Publish the (static) bitrate table into the kernel mirror.
  env.WifiSetBitrates({1, 2, 11, 6, 9, 12, 18, 24, 36, 48, 54});
  return Status::Ok();
}

Result<std::vector<kern::ScanResult>> IwlDriver::Scan() {
  ++stats_.scans;
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kWifiRegCmdArgLo,
                                        static_cast<uint32_t>(scan_results_.iova)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kWifiRegCmdArgHi,
                                        static_cast<uint32_t>(scan_results_.iova >> 32)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kWifiRegCmd, devices::kWifiCmdScan));

  Result<uint32_t> count = env_->MmioRead32(0, devices::kWifiRegScanCount);
  if (!count.ok()) {
    return count.status();
  }
  std::vector<kern::ScanResult> out;
  for (uint32_t i = 0; i < count.value() && i < 64; ++i) {
    Result<ByteSpan> record =
        env_->DmaView(scan_results_.iova + i * devices::kBssRecordSize, devices::kBssRecordSize);
    if (!record.ok()) {
      return record.status();
    }
    const uint8_t* raw = record.value().data();
    kern::ScanResult result;
    std::memcpy(result.bssid.data(), raw, 6);
    const char* ssid = reinterpret_cast<const char*>(raw + 8);
    result.ssid.assign(ssid, strnlen(ssid, 28));
    result.channel = raw[36];
    result.signal_dbm = static_cast<int8_t>(raw[37]);
    out.push_back(std::move(result));
  }
  return out;
}

Status IwlDriver::Associate(const std::string& ssid) {
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kWifiRegCmd, devices::kWifiCmdAssoc));
  Result<uint32_t> state = env_->MmioRead32(0, devices::kWifiRegAssocState);
  if (!state.ok()) {
    return state.status();
  }
  if (state.value() != 1) {
    return Status(ErrorCode::kUnavailable, "association to " + ssid + " failed");
  }
  ++stats_.associations;
  return Status::Ok();
}

void IwlDriver::EnableFeatures(uint32_t features) {
  enabled_features_ = features;
  ++feature_updates_;
}

void IwlDriver::IrqHandler() {
  ++stats_.interrupts;
  Result<uint32_t> icr = env_->MmioRead32(0, devices::kWifiRegIcr);
  if (!icr.ok()) {
    return;
  }
  if ((icr.value() & devices::kWifiIntBssChanged) != 0) {
    Result<uint32_t> state = env_->MmioRead32(0, devices::kWifiRegAssocState);
    env_->WifiBssChange(state.ok() && state.value() == 1);
  }
}

}  // namespace sud::drivers
