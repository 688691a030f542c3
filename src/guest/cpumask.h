// Set of vCPU indices, analogous to the kernel's cpumask_t. Supports VMs of
// up to 64 vCPUs (the paper's largest VM has 32).
#ifndef SRC_GUEST_CPUMASK_H_
#define SRC_GUEST_CPUMASK_H_

#include <bit>
#include <cstdint>

#include "src/base/check.h"

namespace vsched {

class CpuMask {
 public:
  constexpr CpuMask() = default;
  constexpr explicit CpuMask(uint64_t bits) : bits_(bits) {}

  static constexpr CpuMask None() { return CpuMask(0); }
  static CpuMask FirstN(int n) {
    VSCHED_CHECK(n >= 0 && n <= 64);
    return n == 64 ? CpuMask(~0ULL) : CpuMask((1ULL << n) - 1);
  }
  static CpuMask Single(int cpu) {
    VSCHED_CHECK(cpu >= 0 && cpu < 64);
    return CpuMask(1ULL << cpu);
  }

  bool Test(int cpu) const {
    VSCHED_CHECK(cpu >= 0 && cpu < 64);
    return (bits_ >> cpu) & 1;
  }
  void Set(int cpu) { bits_ |= (1ULL << cpu); }
  void Clear(int cpu) { bits_ &= ~(1ULL << cpu); }

  bool Empty() const { return bits_ == 0; }
  int Count() const { return std::popcount(bits_); }
  uint64_t bits() const { return bits_; }

  // Index of the lowest set bit, or -1 when empty.
  int First() const { return bits_ == 0 ? -1 : std::countr_zero(bits_); }

  // Index of the lowest set bit >= cpu, or -1.
  int NextFrom(int cpu) const {
    if (cpu >= 64) {
      return -1;
    }
    uint64_t masked = bits_ & (~0ULL << cpu);
    return masked == 0 ? -1 : std::countr_zero(masked);
  }

  // First set bit in rotated order from `start` (see RotatedFrom), or -1.
  int FirstFrom(int start) const {
    int cpu = NextFrom(start);
    return cpu >= 0 ? cpu : First();
  }

  friend CpuMask operator&(CpuMask a, CpuMask b) { return CpuMask(a.bits_ & b.bits_); }
  friend CpuMask operator|(CpuMask a, CpuMask b) { return CpuMask(a.bits_ | b.bits_); }
  friend CpuMask operator~(CpuMask a) { return CpuMask(~a.bits_); }
  friend bool operator==(CpuMask a, CpuMask b) { return a.bits_ == b.bits_; }

  // Iteration: for (int cpu : mask) { ... }
  class Iterator {
   public:
    Iterator(uint64_t bits) : bits_(bits) {}
    int operator*() const { return std::countr_zero(bits_); }
    Iterator& operator++() {
      bits_ &= bits_ - 1;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return bits_ != other.bits_; }

   private:
    uint64_t bits_;
  };
  Iterator begin() const { return Iterator(bits_); }
  Iterator end() const { return Iterator(0); }

  // Rotated iteration, the order of the kernel's wrapping scans
  // (for k in 0..n-1: cpu = (start + k) % n): the set bits >= start
  // ascending, then the set bits < start ascending.
  //   for (int cpu : mask.RotatedFrom(start)) { ... }
  class RotatedIterator {
   public:
    RotatedIterator(uint64_t run, uint64_t rest)
        : run_(run == 0 ? rest : run), rest_(run == 0 ? 0 : rest) {}
    int operator*() const { return std::countr_zero(run_); }
    RotatedIterator& operator++() {
      run_ &= run_ - 1;
      if (run_ == 0) {
        run_ = rest_;
        rest_ = 0;
      }
      return *this;
    }
    bool operator!=(const RotatedIterator& other) const {
      return run_ != other.run_ || rest_ != other.rest_;
    }

   private:
    uint64_t run_;   // bits still to visit in the current run
    uint64_t rest_;  // the wrapped run, visited once run_ drains
  };
  class RotatedRange {
   public:
    RotatedRange(uint64_t high, uint64_t low) : high_(high), low_(low) {}
    RotatedIterator begin() const { return RotatedIterator(high_, low_); }
    RotatedIterator end() const { return RotatedIterator(0, 0); }

   private:
    uint64_t high_;
    uint64_t low_;
  };
  RotatedRange RotatedFrom(int start) const {
    uint64_t below = FirstN(start).bits_;
    return RotatedRange(bits_ & ~below, bits_ & below);
  }

 private:
  uint64_t bits_ = 0;
};

}  // namespace vsched

#endif  // SRC_GUEST_CPUMASK_H_
