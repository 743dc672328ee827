// Bounded insertion-ordered set and map.
//
// Long simulations deliver millions of messages; dedup structures that only
// need to catch near-in-time duplicates (client retries, leader re-proposals)
// would otherwise grow without bound. These containers evict their oldest
// entries once `capacity` is exceeded — callers must tolerate a false "not
// seen" for entries older than the window, which all users here do (a stale
// duplicate re-executes an idempotent no-op path).
#pragma once

#include <cstddef>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "common/assert.h"

namespace dssmr {

template <class T, class Hash = std::hash<T>>
class BoundedSet {
 public:
  explicit BoundedSet(std::size_t capacity = 1 << 17) : capacity_(capacity) {
    DSSMR_ASSERT(capacity_ > 0);
  }

  /// Returns true if newly inserted.
  bool insert(const T& value) {
    if (!set_.insert(value).second) return false;
    order_.push_back(value);
    while (order_.size() > capacity_) {
      set_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

  bool contains(const T& value) const { return set_.contains(value); }
  std::size_t size() const { return set_.size(); }
  void clear() {
    set_.clear();
    order_.clear();
  }

 private:
  std::size_t capacity_;
  std::unordered_set<T, Hash> set_;
  std::deque<T> order_;
};

template <class K, class V, class Hash = std::hash<K>>
class BoundedMap {
 public:
  explicit BoundedMap(std::size_t capacity = 1 << 16) : capacity_(capacity) {
    DSSMR_ASSERT(capacity_ > 0);
  }

  /// Inserts (or overwrites) and evicts the oldest entries beyond capacity.
  void put(const K& key, V value) {
    auto [it, inserted] = map_.insert_or_assign(key, std::move(value));
    (void)it;
    if (inserted) order_.push_back(key);
    while (order_.size() > capacity_) {
      map_.erase(order_.front());
      order_.pop_front();
    }
  }

  const V* find(const K& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  bool contains(const K& key) const { return map_.contains(key); }
  std::size_t size() const { return map_.size(); }

 private:
  std::size_t capacity_;
  std::unordered_map<K, V, Hash> map_;
  std::deque<K> order_;
};

}  // namespace dssmr
