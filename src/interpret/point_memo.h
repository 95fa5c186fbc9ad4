// PointMemoTable: the session cache's point memo (an exact repeat of an
// answered x0 costs zero API queries) as one flat open-addressing array.
//
// Every RAM hit at a fresh point looks the point up (and misses), then
// files it under the serving region; eviction drops a region's keys. A
// node-based std::unordered_map pays a heap node per entry and a bucket
// plus node pointer chase per lookup. Here an entry is 24 contiguous
// bytes: a lookup hashes to a home index and scans forward (linear
// probing, wrapping at the end) until it finds the key or an empty entry.
// Erase shifts the later entries of the chain back into the hole
// (backward-shift deletion), so there are no tombstones and probe lengths
// depend only on what the table holds, never on its history. The array
// doubles before it passes 3/4 load and keeps its size until Clear.
//
// No locks: EndpointSession owns the table under its cache lock (Find
// under the reader lock, every mutation under the writer lock).

#ifndef OPENAPI_INTERPRET_POINT_MEMO_H_
#define OPENAPI_INTERPRET_POINT_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace openapi::interpret {

/// 128-bit hash of a point's raw double bits (EndpointSession::PointKeyOf).
using PointKey = std::pair<uint64_t, uint64_t>;

/// Folds both halves of a key into the table's index bits.
struct PointKeyHash {
  uint64_t operator()(const PointKey& key) const {
    uint64_t h = key.first ^ (key.second * 0x9e3779b97f4a7c15ULL);
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ULL;
    return h ^ (h >> 32);
  }
};

/// PointKey -> value map. `Hash` picks each key's home index (its low
/// bits); tests substitute a degenerate one to force collisions.
template <typename Hash = PointKeyHash>
class PointMemoTable {
 public:
  /// Marks an empty entry; never a stored value.
  static constexpr size_t kAbsent = static_cast<size_t>(-1);

  size_t size() const { return size_; }
  size_t capacity() const { return entries_.size(); }

  /// The value filed under `key`, or nullptr.
  const size_t* Find(const PointKey& key) const {
    if (entries_.empty()) return nullptr;
    const Entry& entry = entries_[Probe(key)];
    return entry.value == kAbsent ? nullptr : &entry.value;
  }
  size_t* Find(const PointKey& key) {
    return const_cast<size_t*>(std::as_const(*this).Find(key));
  }

  /// Files key -> value unless `key` is present (insert-or-get, like
  /// unordered_map::emplace): returns the entry's value and whether it
  /// was inserted. `value` must not be kAbsent. Growth moves every entry,
  /// so it invalidates pointers returned earlier.
  std::pair<size_t*, bool> Emplace(const PointKey& key, size_t value) {
    if (entries_.empty()) Rehash(kMinCapacity);
    size_t i = Probe(key);
    if (entries_[i].value != kAbsent) return {&entries_[i].value, false};
    if (4 * (size_ + 1) > 3 * entries_.size()) {
      Rehash(2 * entries_.size());
      i = Probe(key);
    }
    entries_[i] = Entry{key, value};
    ++size_;
    return {&entries_[i].value, true};
  }

  /// Removes `key`; false when it is absent.
  bool Erase(const PointKey& key) {
    if (entries_.empty()) return false;
    size_t hole = Probe(key);
    if (entries_[hole].value == kAbsent) return false;
    const size_t mask = entries_.size() - 1;
    // Backward shift: each later entry of the chain moves into the hole
    // unless its home lies cyclically after the hole (moving it would put
    // it before its home, where no probe for it starts).
    for (size_t j = (hole + 1) & mask; entries_[j].value != kAbsent;
         j = (j + 1) & mask) {
      const size_t home = Hash{}(entries_[j].key) & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        entries_[hole] = entries_[j];
        hole = j;
      }
    }
    entries_[hole].value = kAbsent;
    --size_;
    return true;
  }

  /// Drops every entry and releases the array.
  void Clear() {
    entries_ = {};
    size_ = 0;
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  struct Entry {
    PointKey key{};
    size_t value = kAbsent;
  };

  /// Index of `key`'s entry, or of the empty entry that ends its chain.
  /// The table is never full, so the scan terminates.
  size_t Probe(const PointKey& key) const {
    const size_t mask = entries_.size() - 1;
    size_t i = Hash{}(key) & mask;
    while (entries_[i].value != kAbsent && entries_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Re-files every entry into a fresh array of `capacity` (a power of
  /// two).
  void Rehash(size_t capacity) {
    std::vector<Entry> old(capacity);
    old.swap(entries_);
    for (const Entry& entry : old) {
      if (entry.value != kAbsent) entries_[Probe(entry.key)] = entry;
    }
  }

  std::vector<Entry> entries_;
  size_t size_ = 0;
};

}  // namespace openapi::interpret

#endif  // OPENAPI_INTERPRET_POINT_MEMO_H_
