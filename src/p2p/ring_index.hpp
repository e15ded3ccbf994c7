// Bucketed sorted ring index: the live-peer id -> slot map of ChordNetwork.
//
// The seed kept the ring as std::map<ChordId, PeerIndex>. At a million
// peers every successor query walks ~20 pointer-chased tree levels and
// every churn event rebalances red-black nodes — the dominant cache-miss
// source of the overlay hot path. Ids are uniform in [0, 2^m) by
// construction (they are FNV-1a hashes), so a radix-bucketed structure
// gives the same ordered-map operations with O(1) expected cost and
// contiguous memory:
//
//   bucket(id) = id >> shift_     (kept so the mean load is 2..8 entries)
//
// Each bucket is a small sorted array; insert/erase memmove a handful of
// 12-byte entries, successor(key) binary-searches one bucket and then
// scans forward (wrapping) to the next non-empty one. The whole structure
// rebuilds (amortized O(1)) when the population doubles or quarters.
//
// Iteration order is ascending id — identical to the std::map it replaces,
// which is what keeps protocol-mode rng draw order (and therefore event
// traces) byte-stable across the swap.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace lsds::p2p {

class RingIndex {
 public:
  using Id = std::uint64_t;
  using Slot = std::uint32_t;

  /// Packed: 12 bytes, not 16 with padding.
  struct [[gnu::packed, gnu::aligned(4)]] Entry {
    Id id;
    Slot slot;
  };
  static_assert(sizeof(Entry) == 12);

  /// `m` is the identifier-space width in bits (ids live in [0, 2^m)).
  explicit RingIndex(std::uint32_t m = 32) : m_(m) { rebuild(1); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool contains(Id id) const {
    const auto& b = buckets_[bucket_of(id)];
    const auto it = std::lower_bound(b.begin(), b.end(), id, id_less);
    return it != b.end() && it->id == id;
  }

  /// Insert a (unique) id. Grows the bucket array when the mean load
  /// leaves the [1, 8] band.
  void insert(Id id, Slot slot) {
    auto& b = buckets_[bucket_of(id)];
    const auto it = std::lower_bound(b.begin(), b.end(), id, id_less);
    assert(it == b.end() || it->id != id);
    b.insert(it, Entry{id, slot});
    ++size_;
    if (size_ > buckets_.size() * 8) rebuild(buckets_.size() * 2);
  }

  /// Erase an id. Returns false when absent.
  bool erase(Id id) {
    auto& b = buckets_[bucket_of(id)];
    const auto it = std::lower_bound(b.begin(), b.end(), id, id_less);
    if (it == b.end() || it->id != id) return false;
    b.erase(it);
    --size_;
    if (buckets_.size() > 1 && size_ < buckets_.size()) rebuild(buckets_.size() / 2);
    return true;
  }

  /// First entry with id >= key, wrapping past 2^m to the smallest id.
  /// Precondition: !empty().
  Entry successor(Id key) const {
    assert(size_ > 0);
    std::size_t bi = bucket_of(key);
    {
      const auto& b = buckets_[bi];
      const auto it = std::lower_bound(b.begin(), b.end(), key, id_less);
      if (it != b.end()) return *it;
    }
    // Scan forward (wrapping) for the next non-empty bucket. Expected O(1):
    // mean bucket load is kept >= 1, so runs of empty buckets are short.
    for (std::size_t step = 1; step <= buckets_.size(); ++step) {
      const auto& b = buckets_[(bi + step) & (buckets_.size() - 1)];
      if (!b.empty()) return b.front();
    }
    return buckets_[bi].front();  // unreachable: size_ > 0
  }

  /// Visit every entry in ascending id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& b : buckets_) {
      for (const Entry& e : b) fn(e.id, e.slot);
    }
  }

  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  static bool id_less(const Entry& e, Id id) { return e.id < id; }

  std::size_t bucket_of(Id id) const { return static_cast<std::size_t>(id >> shift_); }

  void rebuild(std::size_t n_buckets) {
    // n_buckets is a power of two <= 2^m.
    std::uint32_t bits = 0;
    while ((std::size_t{1} << (bits + 1)) <= n_buckets && bits + 1 <= m_) ++bits;
    std::vector<std::vector<Entry>> next(std::size_t{1} << bits);
    const std::uint32_t shift = m_ - bits;
    for (const auto& b : buckets_) {
      for (const Entry& e : b) next[static_cast<std::size_t>(e.id >> shift)].push_back(e);
    }
    buckets_ = std::move(next);
    shift_ = shift;
    // Per-bucket order is preserved by the ascending outer walk; no sort
    // needed: old bucket ranges map to contiguous new bucket ranges.
  }

  std::uint32_t m_;
  std::uint32_t shift_ = 0;
  std::size_t size_ = 0;
  std::vector<std::vector<Entry>> buckets_;
};

}  // namespace lsds::p2p
