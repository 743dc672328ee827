// Dense open-addressing hash map for the simulator's hot lookups.
//
// std::unordered_map pays a heap-allocated node plus a bucket indirection
// per entry; the oracle's Mapping, the S-SMR static map and the client
// location cache consult their maps on every single command, so those costs
// dominate the wall-clock profile. FlatMap stores entries inline in a
// power-of-two table with linear probing, Fibonacci hashing and
// backward-shift deletion (no tombstones, so probe chains never rot).
//
// Interface is the iterator-style subset of std::unordered_map the call
// sites use (find/contains/operator[]/erase/size/iteration/==), so it drops
// in. Iteration order is table order — unspecified, like unordered_map; do
// not mutate `first` through an iterator.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace dssmr::common {

template <class K, class V, class Hash = std::hash<K>>
class FlatMap {
 public:
  /// Like std::pair, except that an empty V (a set's unit value) takes no
  /// space: a set's table holds bare keys.
  struct value_type {
    K first;
    [[no_unique_address]] V second;
  };

  template <bool Const>
  class Iter {
   public:
    using Map = std::conditional_t<Const, const FlatMap, FlatMap>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;
    using Ptr = std::conditional_t<Const, const value_type*, value_type*>;

    Iter() = default;
    Iter(Map* m, std::size_t i) : map_(m), i_(i) {}
    /// Non-const -> const conversion.
    template <bool C = Const, class = std::enable_if_t<C>>
    Iter(const Iter<false>& o) : map_(o.map_), i_(o.i_) {}  // NOLINT

    Ref operator*() const { return map_->slots_[i_]; }
    Ptr operator->() const { return &map_->slots_[i_]; }
    Iter& operator++() {
      i_ = map_->next_used(i_ + 1);
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) { return a.i_ == b.i_; }
    friend bool operator!=(const Iter& a, const Iter& b) { return a.i_ != b.i_; }

   private:
    friend class FlatMap;
    template <bool>
    friend class Iter;
    Map* map_ = nullptr;
    std::size_t i_ = 0;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;
  explicit FlatMap(std::size_t expected) { reserve(expected); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the table for `n` entries without rehashing on the way there.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;  // max load factor 3/4
    if (cap > slots_.size()) rehash(cap);
  }

  iterator begin() { return {this, next_used(0)}; }
  iterator end() { return {this, slots_.size()}; }
  const_iterator begin() const { return {this, next_used(0)}; }
  const_iterator end() const { return {this, slots_.size()}; }

  bool contains(const K& k) const { return index_of(k) != kNpos; }

  iterator find(const K& k) {
    const std::size_t i = index_of(k);
    return {this, i == kNpos ? slots_.size() : i};
  }
  const_iterator find(const K& k) const {
    const std::size_t i = index_of(k);
    return {this, i == kNpos ? slots_.size() : i};
  }

  V& operator[](const K& k) { return slots_[insert_index(k)].second; }

  std::pair<iterator, bool> emplace(const K& k, V v) {
    const std::size_t before = size_;
    const std::size_t i = insert_index(k);
    const bool inserted = size_ != before;
    if (inserted) slots_[i].second = std::move(v);
    return {iterator{this, i}, inserted};
  }

  bool erase(const K& k) {
    std::size_t hole = index_of(k);
    if (hole == kNpos) return false;
    // Backward-shift deletion: pull every displaced follower of the probe
    // chain into the hole so lookups never need tombstones.
    std::size_t j = hole;
    for (;;) {
      j = (j + 1) & mask_;
      if (!used_[j]) break;
      const std::size_t home = home_of(slots_[j].first);
      // slots_[j] may fill the hole iff its home position does not lie in
      // the cyclic interval (hole, j] — otherwise moving it would break its
      // own probe chain.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    used_[hole] = 0;
    slots_[hole] = value_type{};
    --size_;
    return true;
  }

  void erase(const_iterator it) { erase(it->first); }

  void clear() {
    std::fill(used_.begin(), used_.end(), std::uint8_t{0});
    for (auto& s : slots_) s = value_type{};
    size_ = 0;
  }

  /// Order-independent equality (matches std::unordered_map semantics).
  friend bool operator==(const FlatMap& a, const FlatMap& b) {
    if (a.size_ != b.size_) return false;
    for (const auto& [k, v] : a) {
      const std::size_t i = b.index_of(k);
      if (i == kNpos || !(b.slots_[i].second == v)) return false;
    }
    return true;
  }
  friend bool operator!=(const FlatMap& a, const FlatMap& b) { return !(a == b); }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  std::size_t home_of(const K& k) const {
    // Fibonacci hashing spreads the (often identity-hashed, often
    // sequential) keys across the table even for strided key sets.
    const std::uint64_t h = static_cast<std::uint64_t>(Hash{}(k)) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> shift_);
  }

  std::size_t index_of(const K& k) const {
    if (size_ == 0) return kNpos;
    std::size_t i = home_of(k);
    while (used_[i]) {
      if (slots_[i].first == k) return i;
      i = (i + 1) & mask_;
    }
    return kNpos;
  }

  /// Index of `k`, inserting a default-constructed value if absent.
  std::size_t insert_index(const K& k) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    std::size_t i = home_of(k);
    while (used_[i]) {
      if (slots_[i].first == k) return i;
      i = (i + 1) & mask_;
    }
    used_[i] = 1;
    slots_[i].first = k;
    ++size_;
    return i;
  }

  void rehash(std::size_t cap) {
    DSSMR_ASSERT((cap & (cap - 1)) == 0);
    std::vector<value_type> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_ = std::vector<value_type>(cap);  // value-initialised: V may be move-only
    used_.assign(cap, 0);
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    size_ = 0;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      const std::size_t at = insert_index(old_slots[i].first);
      slots_[at].second = std::move(old_slots[i].second);
    }
  }

  std::size_t next_used(std::size_t i) const {
    while (i < slots_.size() && !used_[i]) ++i;
    return i;
  }

  std::vector<value_type> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace dssmr::common
