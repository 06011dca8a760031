// Disjoint-set forest with union by size and path halving. unite()
// reports the surviving and absorbed roots so callers that key per-class
// state by root id can migrate it on merges.
//
// Ids are dense (0..count-1) in make_set order, so callers that create
// nodes in a deterministic order get a fully deterministic structure —
// no pointer identity or hash order ever leaks into results.
#pragma once

#include <cstddef>
#include <vector>

#include "util/expect.h"

namespace dramdig {

class union_find {
 public:
  /// Create a fresh singleton class; returns its id.
  std::size_t make_set() {
    parent_.push_back(parent_.size());
    size_.push_back(1);
    ++sets_;
    return parent_.size() - 1;
  }

  /// Room for `nodes` nodes without reallocation.
  void reserve(std::size_t nodes) {
    parent_.reserve(nodes);
    size_.reserve(nodes);
  }

  /// Drop every node (keeps capacity).
  void clear() noexcept {
    parent_.clear();
    size_.clear();
    sets_ = 0;
  }

  /// Root of x's class, with path halving.
  [[nodiscard]] std::size_t find(std::size_t x) {
    DRAMDIG_EXPECTS(x < parent_.size());
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Outcome of a unite: `merged` is false when a and b already shared a
  /// class (winner == loser == the common root).
  struct merge_result {
    bool merged = false;
    std::size_t winner = 0;  ///< surviving root
    std::size_t loser = 0;   ///< absorbed root (== winner when !merged)
  };

  /// Merge the classes of a and b (union by size; ties keep the smaller
  /// root id so the structure is independent of call order history).
  merge_result unite(std::size_t a, std::size_t b) {
    std::size_t ra = find(a), rb = find(b);
    if (ra == rb) return {false, ra, ra};
    if (size_[ra] < size_[rb] || (size_[ra] == size_[rb] && ra > rb)) {
      std::swap(ra, rb);
    }
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    --sets_;
    return {true, ra, rb};
  }

  /// True when a and b are known to share a class.
  [[nodiscard]] bool same(std::size_t a, std::size_t b) {
    return find(a) == find(b);
  }

  /// Members in x's class.
  [[nodiscard]] std::size_t class_size(std::size_t x) {
    return size_[find(x)];
  }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return parent_.size();
  }
  [[nodiscard]] std::size_t set_count() const noexcept { return sets_; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;  ///< valid at roots only
  std::size_t sets_ = 0;
};

}  // namespace dramdig
