// Bounded insertion-ordered set and map.
//
// Long simulations deliver millions of messages; dedup structures that only
// need to catch near-in-time duplicates (client retries, leader re-proposals)
// would otherwise grow without bound. These containers evict their oldest
// entries once `capacity` is exceeded — callers must tolerate a false "not
// seen" for entries older than the window, which all users here do (a stale
// duplicate re-executes an idempotent no-op path).
//
// Entries live inline in a common::FlatMap; a ring of keys in insertion order
// names the next victim. The ring grows lazily up to `capacity` (nothing is
// reserved up front: an amcast group's delivered window defaults to 1<<17
// entries on every replica), in fixed-size chunks rather than by doubling, so
// a window that is still filling holds no spare key slots; then each new key
// overwrites the oldest one and erases it from the map. Overwriting an
// existing key's value does not refresh its age.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <utility>

#include "common/assert.h"
#include "common/flat_map.h"

namespace dssmr {

template <class K, class V, class Hash = std::hash<K>>
class BoundedMap {
 public:
  explicit BoundedMap(std::size_t capacity = 1 << 16) : capacity_(capacity) {
    DSSMR_ASSERT(capacity_ > 0);
  }

  /// Inserts (or overwrites) and evicts the oldest entry beyond capacity.
  /// Returns true if `key` was not present.
  bool put(const K& key, V value) {
    if (auto it = map_.find(key); it != map_.end()) {
      it->second = std::move(value);
      return false;
    }
    if (ring_.size() < capacity_) {
      ring_.push_back(key);
    } else {
      map_.erase(ring_[oldest_]);
      ring_[oldest_] = key;
      oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
    }
    map_.emplace(key, std::move(value));
    return true;
  }

  const V* find(const K& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  bool contains(const K& key) const { return map_.contains(key); }
  std::size_t size() const { return map_.size(); }
  void clear() {
    map_.clear();
    ring_.clear();
    oldest_ = 0;
  }

 private:
  std::size_t capacity_;
  common::FlatMap<K, V, Hash> map_;
  /// Keys in insertion order; once full, ring_[oldest_] is the oldest.
  std::deque<K> ring_;
  std::size_t oldest_ = 0;
};

template <class T, class Hash = std::hash<T>>
class BoundedSet {
 public:
  explicit BoundedSet(std::size_t capacity = 1 << 17) : map_(capacity) {}

  /// Returns true if newly inserted.
  bool insert(const T& value) { return map_.put(value, {}); }

  bool contains(const T& value) const { return map_.contains(value); }
  std::size_t size() const { return map_.size(); }
  void clear() { map_.clear(); }

 private:
  struct Unit {};
  BoundedMap<T, Unit, Hash> map_;
};

}  // namespace dssmr
