// Insert-only open-addressing hash map from an unsigned integer key to a
// small value.
//
// Power-of-two capacity, a multiplicative (Fibonacci) hash and linear
// probing: a lookup is one hash and, at the load kept here (at most half
// full), a probe or two along one cache line. A slot is just the key and
// the value; the largest key marks an empty slot, and an entry under that
// key lives beside the table. There is no erase. Entries leave only when
// an insert finds the table half full and rebuilds it: emplace()'s `keep`
// predicate then decides which entries move to the new table, so soft
// state that can tell its stale entries apart drops them there and nowhere
// else. Nothing is allocated before the first insert.
//
// Pointers returned by find() and emplace() stay valid until the next
// insert of a new key.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

namespace siphoc {

template <typename K, typename V>
class FlatMap {
  static_assert(std::is_unsigned_v<K>);

 public:
  /// The default `keep` predicate of emplace(): a rebuild keeps everything.
  struct KeepAll {
    bool operator()(K, const V&) const { return true; }
  };

  /// Entries stored, including any the next rebuild will drop.
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  V* find(K key) {
    if (key == kEmpty) return has_max_key_ ? &max_key_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmpty) return nullptr;
    }
  }
  const V* find(K key) const { return const_cast<FlatMap*>(this)->find(key); }

  /// The value stored under `key`, after inserting `value` there if the key
  /// was absent; `.second` tells whether it was. An insert into a
  /// half-full table first rebuilds it with the entries for which
  /// `keep(key, value)` holds, at a capacity that leaves them at most a
  /// quarter of it. The capacity never shrinks.
  template <typename Keep = KeepAll>
  std::pair<V*, bool> emplace(K key, V value, Keep keep = {}) {
    if (key == kEmpty) {
      if (has_max_key_) return {&max_key_value_, false};
      has_max_key_ = true;
      max_key_value_ = std::move(value);
      ++size_;
      return {&max_key_value_, true};
    }
    std::size_t i = 0;
    if (!slots_.empty()) {
      for (i = home(key); slots_[i].key != kEmpty; i = next(i)) {
        if (slots_[i].key == key) return {&slots_[i].value, false};
      }
    }
    if (2 * (size_ + 1) > slots_.size()) {
      rebuild(keep);
      for (i = home(key); slots_[i].key != kEmpty; i = next(i)) {
      }
    }
    slots_[i] = Slot{key, std::move(value)};
    ++size_;
    return {&slots_[i].value, true};
  }

 private:
  static constexpr K kEmpty = std::numeric_limits<K>::max();
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    K key = kEmpty;
    V value{};
  };

  std::size_t home(K key) const {
    return static_cast<std::size_t>(
        (std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  template <typename Keep>
  void rebuild(Keep& keep) {
    if (has_max_key_ && !keep(kEmpty, max_key_value_)) {
      has_max_key_ = false;
      max_key_value_ = V{};
    }
    std::size_t kept = 0;
    for (const Slot& s : slots_) {
      if (s.key != kEmpty && keep(s.key, s.value)) ++kept;
    }
    const std::size_t capacity = std::max(
        {kMinCapacity, slots_.size(), std::bit_ceil(4 * kept)});
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(capacity);
    size_ = has_max_key_ ? 1 : 0;
    for (Slot& s : old) {
      if (s.key == kEmpty || !keep(s.key, s.value)) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = next(i);
      slots_[i] = std::move(s);
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
  // The entry under the key that marks empty slots, if any.
  bool has_max_key_ = false;
  V max_key_value_{};
};

}  // namespace siphoc
