#include "src/hw/phys_mem.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

namespace sud::hw {

PhysicalMemory::PhysicalMemory(uint64_t size_bytes) {
  uint64_t rounded = PageAlignUp(size_bytes);
  bytes_.resize(rounded, 0);
  page_count_ = rounded / kPageSize;
  page_used_.assign((page_count_ + 63) / 64, 0);
  if (uint64_t tail = page_count_ % 64; tail != 0) {
    page_used_.back() = ~uint64_t{0} << tail;
  }
}

Status PhysicalMemory::Read(uint64_t paddr, ByteSpan out) const {
  if (paddr + out.size() > bytes_.size() || paddr + out.size() < paddr) {
    return Status(ErrorCode::kInvalidArgument,
                  "physical read out of range at " + Hex(paddr));
  }
  std::memcpy(out.data(), bytes_.data() + paddr, out.size());
  return Status::Ok();
}

Status PhysicalMemory::Write(uint64_t paddr, ConstByteSpan data) {
  if (paddr + data.size() > bytes_.size() || paddr + data.size() < paddr) {
    return Status(ErrorCode::kInvalidArgument,
                  "physical write out of range at " + Hex(paddr));
  }
  if (data.size() == 1) {
    // Single-byte DMA writes publish with release semantics: devices use
    // them as the descriptor-done flag (DD written last, as real NICs do),
    // and a driver polling from another thread pairs it with an acquire
    // load of that byte.
    std::atomic_ref<uint8_t>(bytes_[paddr]).store(data[0], std::memory_order_release);
    return Status::Ok();
  }
  std::memcpy(bytes_.data() + paddr, data.data(), data.size());
  return Status::Ok();
}

uint32_t PhysicalMemory::Read32(uint64_t paddr) const {
  if (paddr + 4 > bytes_.size()) {
    return 0;
  }
  return LoadLe32(bytes_.data() + paddr);
}

uint64_t PhysicalMemory::Read64(uint64_t paddr) const {
  if (paddr + 8 > bytes_.size()) {
    return 0;
  }
  return LoadLe64(bytes_.data() + paddr);
}

void PhysicalMemory::Write32(uint64_t paddr, uint32_t value) {
  if (paddr + 4 <= bytes_.size()) {
    StoreLe32(bytes_.data() + paddr, value);
  }
}

void PhysicalMemory::Write64(uint64_t paddr, uint64_t value) {
  if (paddr + 8 <= bytes_.size()) {
    StoreLe64(bytes_.data() + paddr, value);
  }
}

Result<ByteSpan> PhysicalMemory::Window(uint64_t paddr, uint64_t len) {
  if (paddr + len > bytes_.size() || paddr + len < paddr) {
    return Status(ErrorCode::kInvalidArgument, "window out of range at " + Hex(paddr));
  }
  return ByteSpan(bytes_.data() + paddr, len);
}

namespace {

// The bits [lo, lo + len) of a word; 0 < len, lo + len <= 64.
uint64_t BitRun(uint64_t lo, uint64_t len) {
  return (len == 64 ? ~uint64_t{0} : (uint64_t{1} << len) - 1) << lo;
}

}  // namespace

uint64_t PhysicalMemory::MarkPages(uint64_t first, uint64_t end, bool used) {
  uint64_t changed = 0;
  for (uint64_t page = first; page < end;) {
    uint64_t lo = page % 64;
    uint64_t len = std::min<uint64_t>(64 - lo, end - page);
    uint64_t mask = BitRun(lo, len);
    uint64_t& word = page_used_[page / 64];
    uint64_t flip = used ? mask & ~word : mask & word;
    changed += static_cast<uint64_t>(std::popcount(flip));
    word ^= flip;
    page += len;
  }
  return changed;
}

Result<uint64_t> PhysicalMemory::AllocPages(uint64_t num_pages) {
  if (num_pages == 0) {
    return Status(ErrorCode::kInvalidArgument, "zero-page allocation");
  }
  // The free run being grown, [run_start, run_start + run_len), and the
  // lowest free page the scan has passed.
  uint64_t run_start = 0;
  uint64_t run_len = 0;
  uint64_t lowest_free = page_count_;
  bool found = false;
  for (uint64_t w = first_free_ / 64; w < page_used_.size() && !found; ++w) {
    uint64_t used = page_used_[w];
    if (used == ~uint64_t{0}) {
      run_len = 0;
      continue;
    }
    // Alternate free and used runs across the word; the bits below the
    // cursor are set, so a run never starts below it.
    for (uint64_t bit = 0; bit < 64;) {
      uint64_t rest = used >> bit;
      uint64_t free_len = rest == 0 ? 64 - bit : static_cast<uint64_t>(std::countr_zero(rest));
      if (free_len > 0) {
        if (run_len == 0) {
          run_start = w * 64 + bit;
          lowest_free = std::min(lowest_free, run_start);
        }
        run_len += free_len;
        if (run_len >= num_pages) {
          found = true;
          break;
        }
        bit += free_len;
        if (bit == 64) {
          break;  // the run may continue into the next word
        }
      }
      run_len = 0;
      bit += static_cast<uint64_t>(std::countr_one(used >> bit));
    }
  }
  if (!found) {
    first_free_ = lowest_free;
    return Status(ErrorCode::kExhausted, "out of physical pages");
  }
  allocated_pages_ += MarkPages(run_start, run_start + num_pages, true);
  first_free_ = lowest_free == run_start ? run_start + num_pages : lowest_free;
  return run_start * kPageSize;
}

void PhysicalMemory::FreePages(uint64_t paddr, uint64_t num_pages) {
  uint64_t first = paddr / kPageSize;
  uint64_t end = first + num_pages;
  if (first >= page_count_ || end <= first) {
    return;  // out of range, zero pages, or a wrapping length: nothing to free
  }
  allocated_pages_ -= MarkPages(first, std::min(end, page_count_), false);
  first_free_ = std::min(first_free_, first);
}

}  // namespace sud::hw
