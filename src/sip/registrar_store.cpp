#include "sip/registrar_store.hpp"

#include <algorithm>
#include <cassert>

namespace siphoc::sip {

// ---------------------------------------------------------------------------
// SingleMapStore
// ---------------------------------------------------------------------------

void SingleMapStore::upsert(const std::string& aor, const Uri& contact,
                            TimePoint expires) {
  bindings_[aor] = ContactBinding{contact, expires};
}

bool SingleMapStore::erase(const std::string& aor) {
  return bindings_.erase(aor) > 0;
}

std::optional<ContactBinding> SingleMapStore::lookup(const std::string& aor,
                                                     TimePoint now) const {
  const auto it = bindings_.find(aor);
  if (it == bindings_.end() || it->second.expires <= now) return std::nullopt;
  return it->second;
}

std::size_t SingleMapStore::purge_expired(TimePoint now) {
  std::size_t purged = 0;
  for (auto it = bindings_.begin(); it != bindings_.end();) {
    if (it->second.expires <= now) {
      it = bindings_.erase(it);
      ++purged;
    } else {
      ++it;
    }
  }
  return purged;
}

void SingleMapStore::for_each(
    const std::function<void(const std::string&, const ContactBinding&)>& fn)
    const {
  for (const auto& [aor, binding] : bindings_) fn(aor, binding);
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::uint64_t hash_aor(std::string_view aor) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (const char c : aor) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return splitmix64(h);
}

// ---------------------------------------------------------------------------
// ShardedBindingStore
// ---------------------------------------------------------------------------

namespace {
/// Monotonic identity for reader-slot caching: survives a store being
/// destroyed and another allocated at the same address.
std::atomic<std::uint64_t> g_store_ids{1};
}  // namespace

class ShardedBindingStore::ReadGuard {
 public:
  ReadGuard(const ShardedBindingStore& store, ReaderSlot& slot) : slot_(slot) {
    // Pin-and-verify loop: publish the epoch we read, then re-read. Once
    // the two agree the writer's collector is guaranteed to observe the
    // pin before freeing anything retired in that epoch.
    std::uint64_t e = store.global_epoch_.load(std::memory_order_seq_cst);
    for (;;) {
      slot_.epoch.store(e, std::memory_order_seq_cst);
      const std::uint64_t e2 =
          store.global_epoch_.load(std::memory_order_seq_cst);
      if (e2 == e) break;
      e = e2;
    }
  }
  ~ReadGuard() { slot_.epoch.store(kIdleEpoch, std::memory_order_release); }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;

 private:
  ReaderSlot& slot_;
};

ShardedBindingStore::ShardedBindingStore()
    : ShardedBindingStore(Config{}) {}

ShardedBindingStore::ShardedBindingStore(Config config)
    : config_(config) {
  config_.shards = std::max<std::size_t>(1, config_.shards);
  config_.wheel_slots = std::max<std::size_t>(2, config_.wheel_slots);
  const std::size_t capacity =
      round_up_pow2(std::max<std::size_t>(8, config_.initial_capacity));
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->table.store(new Table(capacity), std::memory_order_release);
    shard->wheel.resize(config_.wheel_slots);
    shards_.push_back(std::move(shard));
  }
  wheel_cursor_.assign(config_.shards, 0);
  wheel_floor_.assign(config_.shards, TimePoint{});

  // Consistent-hash ring: kVirtualNodes points per shard, placed by mixing
  // (shard, replica). Lookup walks clockwise to the next point.
  ring_.reserve(config_.shards * kVirtualNodes);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    for (std::size_t v = 0; v < kVirtualNodes; ++v) {
      const std::uint64_t point =
          splitmix64((static_cast<std::uint64_t>(s) << 32) | v);
      ring_.emplace_back(point, static_cast<std::uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
  store_id_ = g_store_ids.fetch_add(1, std::memory_order_relaxed);
}

ShardedBindingStore::~ShardedBindingStore() {
  for (auto& shard : shards_) {
    Table* table = shard->table.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < table->capacity(); ++i) {
      Entry* e = table->slots[i].load(std::memory_order_relaxed);
      if (e != nullptr && e != tombstone()) delete e;
    }
    delete table;
    for (auto& [epoch, entry] : shard->retired_entries) delete entry;
    for (auto& [epoch, t] : shard->retired_tables) delete t;
  }
}

std::size_t ShardedBindingStore::reader_slot_index() const {
  thread_local std::vector<std::pair<std::uint64_t, std::size_t>> cache;
  for (const auto& [id, idx] : cache) {
    if (id == store_id_) return idx;
  }
  const std::size_t idx =
      reader_count_.fetch_add(1, std::memory_order_relaxed);
  cache.emplace_back(store_id_, idx);
  return idx;
}

std::size_t ShardedBindingStore::shard_for_hash(std::uint64_t hash) const {
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(), hash,
      [](std::uint64_t h, const auto& point) { return h < point.first; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::size_t ShardedBindingStore::shard_of(std::string_view aor) const {
  return shard_for_hash(hash_aor(aor));
}

std::size_t ShardedBindingStore::shard_size(std::size_t shard) const {
  return shards_.at(shard)->size.load(std::memory_order_relaxed);
}

std::size_t ShardedBindingStore::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->size.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t ShardedBindingStore::min_pinned_epoch() const {
  std::uint64_t min_epoch = kIdleEpoch;
  const std::size_t active = std::min<std::size_t>(
      reader_count_.load(std::memory_order_relaxed), kMaxReaders);
  for (std::size_t i = 0; i < active; ++i) {
    const std::uint64_t e = readers_[i].epoch.load(std::memory_order_seq_cst);
    min_epoch = std::min(min_epoch, e);
  }
  return min_epoch;
}

void ShardedBindingStore::retire_entry(Shard& shard, Entry* entry) {
  shard.retired_entries.emplace_back(
      global_epoch_.load(std::memory_order_relaxed), entry);
}

void ShardedBindingStore::retire_table(Shard& shard, Table* table) {
  shard.retired_tables.emplace_back(
      global_epoch_.load(std::memory_order_relaxed), table);
}

void ShardedBindingStore::collect(Shard& shard) {
  global_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (shard.retired_entries.empty() && shard.retired_tables.empty()) return;
  const std::uint64_t safe = min_pinned_epoch();  // free strictly below this
  auto sweep = [safe](auto& retired, auto deleter) {
    std::size_t kept = 0;
    for (auto& item : retired) {
      if (item.first < safe) {
        deleter(item.second);
      } else {
        retired[kept++] = item;
      }
    }
    retired.resize(kept);
  };
  sweep(shard.retired_entries, [](Entry* e) { delete e; });
  sweep(shard.retired_tables, [](Table* t) { delete t; });
}

ShardedBindingStore::Entry* ShardedBindingStore::find_entry(
    const Table& table, std::uint64_t hash, std::string_view aor,
    std::size_t* slot_out) const {
  std::size_t idx = hash & table.mask;
  std::size_t first_free = table.capacity();  // first tombstone on the path
  for (;;) {
    Entry* e = table.slots[idx].load(std::memory_order_acquire);
    if (e == nullptr) {
      *slot_out = first_free != table.capacity() ? first_free : idx;
      return nullptr;
    }
    if (e == tombstone()) {
      if (first_free == table.capacity()) first_free = idx;
    } else if (e->hash == hash && e->aor == aor) {
      *slot_out = idx;
      return e;
    }
    idx = (idx + 1) & table.mask;
  }
}

void ShardedBindingStore::grow(Shard& shard) {
  Table* old_table = shard.table.load(std::memory_order_acquire);
  Table* new_table = new Table(old_table->capacity() * 2);
  std::size_t live = 0;
  for (std::size_t i = 0; i < old_table->capacity(); ++i) {
    Entry* e = old_table->slots[i].load(std::memory_order_relaxed);
    if (e == nullptr || e == tombstone()) continue;
    std::size_t idx = e->hash & new_table->mask;
    while (new_table->slots[idx].load(std::memory_order_relaxed) != nullptr) {
      idx = (idx + 1) & new_table->mask;
    }
    new_table->slots[idx].store(e, std::memory_order_relaxed);
    ++live;
  }
  shard.used = live;  // tombstones do not survive the rehash
  shard.table.store(new_table, std::memory_order_release);
  retire_table(shard, old_table);
}

std::size_t ShardedBindingStore::wheel_index(TimePoint expires) const {
  const auto ticks = expires.time_since_epoch() / kWheelGranularity;
  return static_cast<std::size_t>(ticks) % config_.wheel_slots;
}

void ShardedBindingStore::file_in_wheel(Shard& shard, std::uint64_t hash,
                                        const std::string& aor,
                                        TimePoint expires) {
  shard.wheel[wheel_index(expires)].push_back(WheelItem{hash, aor, expires});
}

void ShardedBindingStore::upsert(const std::string& aor, const Uri& contact,
                                 TimePoint expires) {
  const std::uint64_t hash = hash_aor(aor);
  Shard& shard = *shards_[shard_for_hash(hash)];
  std::lock_guard<std::mutex> lock(shard.write_mutex);

  Table* table = shard.table.load(std::memory_order_acquire);
  if ((shard.used + 1) * 10 > table->capacity() * 7) {
    grow(shard);
    table = shard.table.load(std::memory_order_acquire);
  }

  auto* entry = new Entry{hash, aor, contact, expires};
  std::size_t slot = 0;
  Entry* existing = find_entry(*table, hash, aor, &slot);
  if (existing != nullptr) {
    table->slots[slot].store(entry, std::memory_order_release);
    retire_entry(shard, existing);
  } else {
    if (table->slots[slot].load(std::memory_order_relaxed) == nullptr) {
      ++shard.used;
    }
    table->slots[slot].store(entry, std::memory_order_release);
    shard.size.fetch_add(1, std::memory_order_relaxed);
  }
  file_in_wheel(shard, hash, aor, expires);
  collect(shard);
}

bool ShardedBindingStore::erase(const std::string& aor) {
  const std::uint64_t hash = hash_aor(aor);
  Shard& shard = *shards_[shard_for_hash(hash)];
  std::lock_guard<std::mutex> lock(shard.write_mutex);

  Table* table = shard.table.load(std::memory_order_acquire);
  std::size_t slot = 0;
  Entry* existing = find_entry(*table, hash, aor, &slot);
  if (existing == nullptr) return false;
  table->slots[slot].store(tombstone(), std::memory_order_release);
  shard.size.fetch_sub(1, std::memory_order_relaxed);
  retire_entry(shard, existing);
  collect(shard);
  return true;
}

std::optional<ContactBinding> ShardedBindingStore::lookup(
    const std::string& aor, TimePoint now) const {
  const std::uint64_t hash = hash_aor(aor);
  const Shard& shard = *shards_[shard_for_hash(hash)];

  const std::size_t reader = reader_slot_index();
  if (reader >= kMaxReaders) {
    // Reader population exceeded the slot array: stay correct by joining
    // the writer lock instead of pinning an epoch.
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    std::size_t slot = 0;
    const Entry* e =
        find_entry(*shard.table.load(std::memory_order_acquire), hash, aor,
                   &slot);
    if (e == nullptr || e->expires <= now) return std::nullopt;
    return ContactBinding{e->contact, e->expires};
  }

  ReadGuard guard(*this, readers_[reader]);
  const Table* table = shard.table.load(std::memory_order_acquire);
  std::size_t idx = hash & table->mask;
  for (;;) {
    const Entry* e = table->slots[idx].load(std::memory_order_acquire);
    if (e == nullptr) return std::nullopt;
    if (e != tombstone() && e->hash == hash && e->aor == aor) {
      if (e->expires <= now) return std::nullopt;
      return ContactBinding{e->contact, e->expires};  // copied while pinned
    }
    idx = (idx + 1) & table->mask;
  }
}

std::size_t ShardedBindingStore::purge_expired(TimePoint now) {
  std::size_t purged = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    const auto drain = [&](std::vector<WheelItem>& bucket) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        WheelItem& item = bucket[i];
        if (item.expires > now) {
          // Not yet due: filed a full wheel turn out, or falls later in
          // the granule containing `now`. Keep for a later pass.
          if (kept != i) bucket[kept] = std::move(item);
          ++kept;
          continue;
        }
        Table* table = shard.table.load(std::memory_order_acquire);
        std::size_t slot = 0;
        Entry* e = find_entry(*table, item.hash, item.aor, &slot);
        // Refreshed entries carry a newer expiry than the wheel item that
        // pointed at them; only still-stale entries die.
        if (e != nullptr && e->expires <= now) {
          table->slots[slot].store(tombstone(), std::memory_order_release);
          shard.size.fetch_sub(1, std::memory_order_relaxed);
          retire_entry(shard, e);
          ++purged;
        }
      }
      bucket.resize(kept);
    };
    // Walk the wheel from the shard's floor up to `now`, one granule at a
    // time; only the due buckets are touched, never the whole table. Only
    // fully elapsed granules advance the cursor -- the granule containing
    // `now` is drained in place (items due mid-granule must not wait a
    // whole wheel lap) but stays current until it fully elapses.
    while (wheel_floor_[s] + kWheelGranularity <= now) {
      drain(shard.wheel[wheel_cursor_[s]]);
      wheel_cursor_[s] = (wheel_cursor_[s] + 1) % config_.wheel_slots;
      wheel_floor_[s] += kWheelGranularity;
    }
    if (wheel_floor_[s] <= now) drain(shard.wheel[wheel_cursor_[s]]);
    collect(shard);
  }
  return purged;
}

void ShardedBindingStore::for_each(
    const std::function<void(const std::string&, const ContactBinding&)>& fn)
    const {
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    // Writer-side walk under the shard lock: entries cannot be retired
    // underneath us, and the visit order (shard, then slot) is stable for
    // a given key population -- determinism for the handoff sweeps.
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    const Table* table = shard.table.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < table->capacity(); ++i) {
      const Entry* e = table->slots[i].load(std::memory_order_acquire);
      if (e == nullptr || e == tombstone()) continue;
      fn(e->aor, ContactBinding{e->contact, e->expires});
    }
  }
}

}  // namespace siphoc::sip
