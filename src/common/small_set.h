// Sorted small-vector set for tiny, short-lived membership tracking.
//
// The execution engine's per-command input tracking (which groups a task
// awaits, which have arrived) holds a handful of GroupIds each (bounded by
// the partition count); a node-based std::set pays an allocation per element and
// pointer-chasing per lookup. This keeps elements inline in a sorted vector:
// O(log n) lookup, O(n) insert, zero allocations for the common n <= 8 case
// once the vector's inline growth is amortized, and deterministic iteration
// order for free.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace dssmr::common {

template <class T>
class SmallSet {
 public:
  /// Returns true if newly inserted.
  bool insert(const T& value) {
    auto it = std::lower_bound(items_.begin(), items_.end(), value);
    if (it != items_.end() && *it == value) return false;
    items_.insert(it, value);
    return true;
  }

  bool contains(const T& value) const {
    return std::binary_search(items_.begin(), items_.end(), value);
  }

  bool erase(const T& value) {
    auto it = std::lower_bound(items_.begin(), items_.end(), value);
    if (it == items_.end() || *it != value) return false;
    items_.erase(it);
    return true;
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  friend bool operator==(const SmallSet&, const SmallSet&) = default;

 private:
  std::vector<T> items_;
};

}  // namespace dssmr::common
