#include "bgr/route/selection_index.hpp"

#include "bgr/common/check.hpp"

namespace bgr {

std::int32_t SelectionIndex::add(std::int32_t rank, std::int32_t edge) {
  Entry e;
  e.rank = rank;
  e.edge = edge;
  entries_.push_back(e);
  pos_.push_back(-1);
  return static_cast<std::int32_t>(entries_.size()) - 1;
}

void SelectionIndex::build() {
  BGR_CHECK(heap_.empty());
  heap_.resize(entries_.size());
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    place(i, static_cast<std::int32_t>(i));
  }
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

bool SelectionIndex::before(std::int32_t a, std::int32_t b) const {
  const Entry& x = entries_[static_cast<std::size_t>(a)];
  const Entry& y = entries_[static_cast<std::size_t>(b)];
  const int c = key_compare(x.score.key, y.score.key, order_);
  if (c != 0) return c < 0;
  if (x.rank != y.rank) return x.rank < y.rank;
  return x.edge < y.edge;
}

void SelectionIndex::place(std::size_t i, std::int32_t slot) {
  heap_[i] = slot;
  pos_[static_cast<std::size_t>(slot)] = static_cast<std::int32_t>(i);
}

void SelectionIndex::sift_up(std::size_t i) {
  const std::int32_t slot = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(slot, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, slot);
}

void SelectionIndex::sift_down(std::size_t i) {
  const std::int32_t slot = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], slot)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, slot);
}

void SelectionIndex::erase(std::int32_t slot) {
  const std::int32_t at = pos_[static_cast<std::size_t>(slot)];
  if (at < 0) return;
  pos_[static_cast<std::size_t>(slot)] = -1;
  const std::int32_t last = heap_.back();
  heap_.pop_back();
  if (last == slot) return;
  const auto i = static_cast<std::size_t>(at);
  place(i, last);
  update(last);
}

void SelectionIndex::update(std::int32_t slot) {
  const std::int32_t at = pos_[static_cast<std::size_t>(slot)];
  BGR_CHECK(at >= 0);
  const auto i = static_cast<std::size_t>(at);
  if (i > 0 && before(slot, heap_[(i - 1) / 2])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

}  // namespace bgr
