#ifndef CHAMELEON_UTIL_BITVECTOR_H_
#define CHAMELEON_UTIL_BITVECTOR_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

/// \file bitvector.h
/// Dense bit vector used for possible-world edge masks. One cache line
/// holds 512 edges, so a sampled world of a million-edge graph is ~122 KiB
/// and world-vs-world operations are word-parallel.

namespace chameleon {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  std::size_t size() const { return size_; }

  void Resize(std::size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }

  bool Get(std::size_t i) const {
    return ((words_[i >> 6] >> (i & 63)) & 1u) != 0;
  }

  void Set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }

  void Clear(std::size_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  void ClearAll() { words_.assign(words_.size(), 0); }

  /// Calls `fn(i)` for every set bit, in increasing order: one ctz per set
  /// bit, no per-bit branch. Bits past size() must be zero (Set/Clear
  /// keep this; writers through mutable_words() must too).
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn((w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  /// Calls `fn(i)` for every clear bit below size(), in increasing order.
  template <typename Fn>
  void ForEachClear(Fn&& fn) const {
    const std::size_t tail = size_ & 63;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = ~words_[w];
      if (tail != 0 && w + 1 == words_.size()) {
        bits &= (std::uint64_t{1} << tail) - 1;
      }
      for (; bits != 0; bits &= bits - 1) {
        fn((w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  const std::vector<std::uint64_t>& words() const { return words_; }
  std::vector<std::uint64_t>& mutable_words() { return words_; }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_BITVECTOR_H_
