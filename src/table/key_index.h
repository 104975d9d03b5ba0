#ifndef MDE_TABLE_KEY_INDEX_H_
#define MDE_TABLE_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "table/vec_ops.h"

/// Internal to the columnar operators (vec_ops.cc); in a header of its own
/// so its tests can drive it directly.
namespace mde::table::internal {

/// An empty slot: no group, no row.
inline constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

/// The one key index of hash join, group-by and distinct: open addressing
/// with linear probing over 64-bit key tags, in a power-of-two slot table
/// kept at most half full. Each distinct key gets a dense group id in
/// first-insertion order, with the row that inserted it as the group's
/// first row. A slot holds the tag beside the group id, so a probe reads one
/// array and compares rows only on a full tag match. The table doubles when
/// its slots would pass half full; there is no allocation per key.
///
/// The tag is the key's row hash (ForEachHashedRow). Its home slot is the
/// low bits of the two halves of its 128-bit product with 2^64/phi, XORed,
/// so every tag bit reaches the slot: the low bits of a row hash depend
/// only on the low bits of its cell hashes, which for strings and bools
/// are weak.
class KeyIndex {
 public:
  explicit KeyIndex(size_t expected_keys) {
    size_t cap = 16;
    while (cap < 2 * expected_keys) cap *= 2;
    slots_.assign(cap, Slot{0, kNone});
    mask_ = cap - 1;
  }

  size_t num_groups() const { return first_.size(); }
  /// The first row of each group, in group id (first-insertion) order.
  const SelVector& first_rows() const { return first_; }

  /// The group of the key tagged `tag` whose first row satisfies
  /// same(first_row), else a new group with `row` as its first row. A new
  /// group whose row fails same(row) — a key unequal to itself, such as a
  /// NaN cell — can match no later row, so it takes no slot: n such rows
  /// under one tag cost O(n), not a probe run that grows by one per row.
  template <typename Same>
  uint32_t FindOrAdd(uint64_t tag, uint32_t row, Same same) {
    size_t pos = Home(tag);
    for (;; pos = (pos + 1) & mask_) {
      const Slot& s = slots_[pos];
      if (s.group == kNone) break;
      if (s.tag == tag && same(first_[s.group])) return s.group;
    }
    const uint32_t g = static_cast<uint32_t>(first_.size());
    first_.push_back(row);
    if (!same(row)) return g;
    slots_[pos] = Slot{tag, g};
    if (2 * ++used_ > slots_.size()) Grow();
    return g;
  }

  /// The group of the key tagged `tag` whose first row satisfies
  /// same(first_row), or kNone. Read-only: probe chunks share the index.
  template <typename Same>
  uint32_t Find(uint64_t tag, Same same) const {
    for (size_t pos = Home(tag);; pos = (pos + 1) & mask_) {
      const Slot& s = slots_[pos];
      if (s.group == kNone) return kNone;
      if (s.tag == tag && same(first_[s.group])) return s.group;
    }
  }

 private:
  struct Slot {
    uint64_t tag;
    uint32_t group;
  };

  size_t Home(uint64_t tag) const {
    const __uint128_t m =
        static_cast<__uint128_t>(tag) * 0x9e3779b97f4a7c15ULL;
    return (static_cast<uint64_t>(m) ^ static_cast<uint64_t>(m >> 64)) &
           mask_;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(2 * old.size(), Slot{0, kNone});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.group == kNone) continue;
      size_t pos = Home(s.tag);
      while (slots_[pos].group != kNone) pos = (pos + 1) & mask_;
      slots_[pos] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t used_ = 0;  // slots holding a group
  SelVector first_;
};

}  // namespace mde::table::internal

#endif  // MDE_TABLE_KEY_INDEX_H_
