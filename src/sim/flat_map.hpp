// Open-addressing hash map for 64-bit integer keys: one power-of-two array
// of slots, linear probing from a Fibonacci hash, and backward-shift
// erase (no tombstones). An entry costs no node of its own, so inserts and
// erases allocate only when the table grows. It doubles past 7/8 full.
//
// Iteration order is unspecified. Any insert or erase may move entries,
// so a reference from find() or operator[] is valid only until the next
// one.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace trail::sim {

template <typename V>
class FlatMap {
 public:
  using Key = std::uint64_t;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool contains(Key key) const { return find(key) != nullptr; }

  [[nodiscard]] V* find(Key key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }
  [[nodiscard]] const V* find(Key key) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  /// The value for `key`, inserted default-constructed if absent.
  V& operator[](Key key) {
    if (V* v = find(key)) return *v;
    if ((size_ + 1) * 8 > slots_.size() * 7) rehash(std::max<std::size_t>(16, slots_.size() * 2));
    std::size_t i = home(key);
    while (slots_[i].used) i = (i + 1) & mask();
    slots_[i].used = true;
    slots_[i].key = key;
    ++size_;
    return slots_[i].value;
  }

  /// Remove `key`; false if it was absent.
  bool erase(Key key) {
    if (slots_.empty()) return false;
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask()) {
      if (!slots_[hole].used) return false;
      if (slots_[hole].key == key) break;
    }
    // Pull back each later entry of the probe run that may sit in the
    // hole: one whose home is not cyclically within (hole, j].
    for (std::size_t j = (hole + 1) & mask(); slots_[j].used; j = (j + 1) & mask()) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask()) < ((j - hole) & mask())) continue;
      slots_[hole].key = slots_[j].key;
      slots_[hole].value = std::move(slots_[j].value);
      hole = j;
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

  /// fn(key, value) for every entry.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_)
      if (s.used) fn(s.key, s.value);
  }

 private:
  struct Slot {
    Key key = 0;
    V value{};
    bool used = false;
  };

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  [[nodiscard]] std::size_t home(Key key) const {
    // Fibonacci hashing: the top bits of key * 2^64/phi.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                    (64 - std::countr_zero(slots_.size())));
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    for (Slot& s : old) {
      if (!s.used) continue;
      std::size_t i = home(s.key);
      while (slots_[i].used) i = (i + 1) & mask();
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace trail::sim
