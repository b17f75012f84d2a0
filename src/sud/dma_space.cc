#include "src/sud/dma_space.h"

namespace sud {

uint64_t DmaSpace::NextIova(uint64_t bytes) const {
  // The MSI doorbell window is never handed out as DMA memory: a region that
  // would overlap it starts past it instead (IOVAs below are unchanged).
  uint64_t msi_end = hw::kMsiRangeBase + hw::kMsiRangeSize;
  if (next_iova_ < msi_end && next_iova_ + bytes > hw::kMsiRangeBase) {
    return msi_end;
  }
  return next_iova_;
}

Result<DmaRegion> DmaSpace::Alloc(uint64_t bytes, bool coherent) {
  if (bytes == 0) {
    return Status(ErrorCode::kInvalidArgument, "zero-byte dma allocation");
  }
  uint64_t rounded = hw::PageAlignUp(bytes);
  Result<uint64_t> paddr = dram_->AllocPages(rounded / hw::kPageSize);
  if (!paddr.ok()) {
    return paddr.status();
  }
  uint64_t iova = NextIova(rounded);
  Status mapped = iommu_->Map(source_id_, iova, paddr.value(), rounded, /*readable=*/true,
                              /*writable=*/true);
  if (!mapped.ok()) {
    dram_->FreePages(paddr.value(), rounded / hw::kPageSize);
    return mapped;
  }
  next_iova_ = iova + rounded;
  DmaRegion region{iova, paddr.value(), rounded, coherent};
  // Resolve the host window once: the steady-state HostView is then pure
  // pointer arithmetic off the cached base.
  Result<ByteSpan> window = dram_->Window(region.paddr, region.bytes);
  if (!window.ok()) {
    (void)iommu_->Unmap(source_id_, iova, rounded);
    dram_->FreePages(paddr.value(), rounded / hw::kPageSize);
    return window.status();
  }
  region.host_base = window.value().data();
  regions_[iova] = region;
  mru_region_.store(nullptr, std::memory_order_release);  // map may have rebalanced
  return region;
}

Result<DmaRegion> DmaSpace::MapExternal(uint64_t paddr, uint64_t bytes) {
  if (bytes == 0 || !hw::IsPageAligned(paddr)) {
    return Status(ErrorCode::kInvalidArgument, "external dma grant not page aligned");
  }
  uint64_t rounded = hw::PageAlignUp(bytes);
  uint64_t iova = NextIova(rounded);
  Status mapped = iommu_->Map(source_id_, iova, paddr, rounded, /*readable=*/true,
                              /*writable=*/false);
  if (!mapped.ok()) {
    return mapped;
  }
  next_iova_ = iova + rounded;
  DmaRegion region{iova, paddr, rounded, /*coherent=*/false, /*external=*/true};
  Result<ByteSpan> window = dram_->Window(region.paddr, region.bytes);
  if (!window.ok()) {
    (void)iommu_->Unmap(source_id_, iova, rounded);
    return window.status();
  }
  region.host_base = window.value().data();
  regions_[iova] = region;
  mru_region_.store(nullptr, std::memory_order_release);
  return region;
}

Status DmaSpace::Free(uint64_t iova) {
  auto it = regions_.find(iova);
  if (it == regions_.end()) {
    return Status(ErrorCode::kNotFound, "no dma region at iova");
  }
  const DmaRegion& region = it->second;
  (void)iommu_->Unmap(source_id_, region.iova, region.bytes);
  if (!region.external) {
    dram_->FreePages(region.paddr, region.bytes / hw::kPageSize);
  }
  regions_.erase(it);
  mru_region_.store(nullptr, std::memory_order_release);
  return Status::Ok();
}

const DmaRegion* DmaSpace::FindRegion(uint64_t iova, uint64_t len) const {
  if (iova + len < iova) {
    return nullptr;  // length overflow can never land inside a region
  }
  const DmaRegion* hint = mru_region_.load(std::memory_order_acquire);
  if (hint != nullptr && iova >= hint->iova && iova + len <= hint->iova + hint->bytes) {
    return hint;
  }
  auto it = regions_.upper_bound(iova);
  if (it == regions_.begin()) {
    return nullptr;
  }
  --it;
  const DmaRegion& region = it->second;
  if (iova < region.iova || iova + len > region.iova + region.bytes) {
    return nullptr;
  }
  mru_region_.store(&region, std::memory_order_release);
  return &region;
}

Result<ByteSpan> DmaSpace::HostView(uint64_t iova, uint64_t len) {
  const DmaRegion* region = FindRegion(iova, len);
  if (region == nullptr) {
    return Status(ErrorCode::kNotFound, "iova range not in any dma region");
  }
  return ByteSpan(region->host_base + (iova - region->iova), len);
}

Result<uint64_t> DmaSpace::IovaToPaddr(uint64_t iova) const {
  const DmaRegion* region = FindRegion(iova, 1);
  if (region == nullptr) {
    return Status(ErrorCode::kNotFound, "iova not in any dma region");
  }
  return region->paddr + (iova - region->iova);
}

void DmaSpace::ReleaseAll() {
  for (const auto& [iova, region] : regions_) {
    (void)iommu_->Unmap(source_id_, region.iova, region.bytes);
    if (!region.external) {
      dram_->FreePages(region.paddr, region.bytes / hw::kPageSize);
    }
  }
  regions_.clear();
  mru_region_.store(nullptr, std::memory_order_release);
}

uint64_t DmaSpace::total_bytes() const {
  uint64_t total = 0;
  for (const auto& [iova, region] : regions_) {
    total += region.bytes;
  }
  return total;
}

}  // namespace sud
