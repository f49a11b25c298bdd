#pragma once

#include <cstdint>
#include <vector>

#include "bgr/route/criteria.hpp"

namespace bgr {

/// Indexed binary min-heap over the candidate edges of one deletion loop
/// (DESIGN.md §17). Slots are dense candidate ids handed out by add(); the
/// heap orders them by (SelectionKey under the tier order, net-name rank,
/// edge) — exactly the winner of a first-smallest linear scan that breaks
/// key ties on (net name, edge). The order is total (names are unique), so
/// the top is the scan's winner whatever the insertion history.
///
/// The owner re-fills stale key halves and calls update() for each slot
/// whose key changed; a slot whose edge died (deleted, pruned, or now a
/// bridge) leaves the heap with erase() and never returns.
class SelectionIndex {
 public:
  struct Entry {
    ScoreCache score;
    std::int32_t rank = 0;  // natural-order rank of the candidate's net name
    std::int32_t edge = -1;
  };

  explicit SelectionIndex(CriteriaOrder order) : order_(order) {}

  /// Appends a slot outside the heap and returns its id.
  std::int32_t add(std::int32_t rank, std::int32_t edge);
  /// Heapifies every added slot; call once, after their keys are filled.
  void build();
  [[nodiscard]] Entry& entry(std::int32_t slot) {
    return entries_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] const Entry& entry(std::int32_t slot) const {
    return entries_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] bool contains(std::int32_t slot) const {
    return pos_[static_cast<std::size_t>(slot)] >= 0;
  }
  /// Removes a slot from the heap; no-op when it is already out.
  void erase(std::int32_t slot);
  /// Restores the heap order around a slot whose key changed.
  void update(std::int32_t slot);
  /// Slot of the minimum, or -1 when the heap is empty.
  [[nodiscard]] std::int32_t top() const {
    return heap_.empty() ? -1 : heap_.front();
  }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

 private:
  [[nodiscard]] bool before(std::int32_t a, std::int32_t b) const;
  void place(std::size_t i, std::int32_t slot);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  CriteriaOrder order_;
  std::vector<Entry> entries_;
  std::vector<std::int32_t> heap_;  // slots, min at the front
  std::vector<std::int32_t> pos_;   // slot → heap position, -1 when out
};

}  // namespace bgr
