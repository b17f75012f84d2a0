// PhysicalMemory: the machine's DRAM.
//
// Every DMA that survives routing and IOMMU translation lands here, as does
// every CPU load/store the simulated kernel performs. Kernel data structures
// (the net stack's buffers, the firewall verdict cache, ...) live at known
// physical ranges, so an unconfined malicious DMA visibly corrupts them —
// which is exactly what the security tests check for.

#ifndef SUD_SRC_HW_PHYS_MEM_H_
#define SUD_SRC_HW_PHYS_MEM_H_

#include <cstdint>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/status.h"

namespace sud::hw {

constexpr uint64_t kPageSize = 4096;
constexpr uint64_t kPageMask = kPageSize - 1;

inline uint64_t PageAlignDown(uint64_t addr) { return addr & ~kPageMask; }
inline uint64_t PageAlignUp(uint64_t addr) { return (addr + kPageMask) & ~kPageMask; }
inline bool IsPageAligned(uint64_t addr) { return (addr & kPageMask) == 0; }

class PhysicalMemory {
 public:
  explicit PhysicalMemory(uint64_t size_bytes);

  uint64_t size() const { return bytes_.size(); }

  Status Read(uint64_t paddr, ByteSpan out) const;
  Status Write(uint64_t paddr, ConstByteSpan data);

  // Direct typed accessors; bounds-checked, return 0 / no-op when out of
  // range (callers that care use Read/Write and check Status).
  uint32_t Read32(uint64_t paddr) const;
  uint64_t Read64(uint64_t paddr) const;
  void Write32(uint64_t paddr, uint32_t value);
  void Write64(uint64_t paddr, uint64_t value);

  // Raw pointer into DRAM for zero-copy paths (shared uchan buffers). The
  // span stays valid for the lifetime of the PhysicalMemory.
  Result<ByteSpan> Window(uint64_t paddr, uint64_t len);

  // A first-fit page allocator over DRAM for the harness: kernel
  // structures, DMA pools, uchan rings and DRAM-backed skb frags carve their
  // backing store here.
  //
  // AllocPages returns the LOWEST page-aligned address that starts a run of
  // `num_pages` free pages (kExhausted when there is none, kInvalidArgument
  // for zero pages). That is exactly the address a one-page-at-a-time scan
  // from page 0 returns, for every call sequence, so every paddr the system
  // hands out (DMA pools, rings, test sentinels) is a pure function of the
  // call history. The scan is over a word bitmap (one bit per page, set =
  // in use) and starts at a lowest-free cursor below which every page is in
  // use. Full words are skipped whole and free runs inside a word are found
  // with countr_zero/countr_one, so the steady state of alloc/free cycles
  // above a setup-time prefix costs a word or two, not a walk from page 0.
  //
  // FreePages clears the pages of [paddr, paddr + num_pages * kPageSize)
  // that are in use and lowers the cursor. Pages already free and pages
  // beyond the end of DRAM are ignored, so a double free or an out-of-range
  // free leaves allocated_pages() exact.
  //
  // Not thread-safe: callers serialise allocation and free.
  Result<uint64_t> AllocPages(uint64_t num_pages);
  void FreePages(uint64_t paddr, uint64_t num_pages);
  uint64_t allocated_pages() const { return allocated_pages_; }

 private:
  // Sets (used=true) or clears the bits of pages [first, end), returning how
  // many bits changed.
  uint64_t MarkPages(uint64_t first, uint64_t end, bool used);

  std::vector<uint8_t> bytes_;
  // Bit p % 64 of word p / 64 is page p; the bits past the last page of the
  // last word are set, so no run ever reaches past the end of DRAM.
  std::vector<uint64_t> page_used_;
  uint64_t page_count_ = 0;
  // Every page below first_free_ is in use.
  uint64_t first_free_ = 0;
  uint64_t allocated_pages_ = 0;
};

}  // namespace sud::hw

#endif  // SUD_SRC_HW_PHYS_MEM_H_
