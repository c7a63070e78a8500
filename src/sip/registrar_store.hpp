// Registrar binding storage backends (docs/ARCHITECTURE.md, "Provider
// backend").
//
// The paper's providers were real servers (siphoc.ch, netvoip.ch,
// polyphone.ethz.ch); the emulation grew them from a toy std::map into a
// production-shaped engine so the Internet side can sustain millions of
// bindings under a heavy INVITE mix (ROADMAP item 1). Two backends share
// one interface:
//
//   * SingleMapStore -- the seed's std::map, kept as the sequential
//     baseline bench_registrar compares against.
//   * ShardedBindingStore -- consistent-hash over the AOR across N shards;
//     each shard is an open-addressing table whose *read path is lock-free*
//     (epoch-based reclamation, RCU-style immutable entries published with
//     release stores), so the region-sharded kernel's worker threads -- or
//     bench reader threads -- can resolve INVITEs while lane 0 registers.
//     Expiry is a per-shard timer wheel: the maintenance tick touches only
//     the due bucket instead of scanning every binding.
//
// Writers serialize per shard on a mutex (simulation writes come from one
// lane anyway); readers never block and never see a torn entry. Reclaim is
// deferred until every pinned reader epoch has moved past the retire
// epoch -- the classic EBR contract, small enough here to audit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "sip/uri.hpp"

namespace siphoc::sip {

/// One stored registration: AOR -> contact, with absolute expiry.
struct ContactBinding {
  Uri contact;
  TimePoint expires{};
};

/// Storage behind a Registrar. `now` flows in from the simulation so the
/// store itself stays clock-free (and bench-drivable without a simulator).
class BindingStore {
 public:
  virtual ~BindingStore() = default;

  /// Inserts or refreshes a binding.
  virtual void upsert(const std::string& aor, const Uri& contact,
                      TimePoint expires) = 0;
  /// Removes a binding; false when absent.
  virtual bool erase(const std::string& aor) = 0;
  /// The unexpired binding, if any.
  virtual std::optional<ContactBinding> lookup(const std::string& aor,
                                               TimePoint now) const = 0;
  /// Drops bindings that expired at or before `now`; returns how many.
  virtual std::size_t purge_expired(TimePoint now) = 0;
  /// Stored bindings. Expired-but-not-yet-purged entries may be counted
  /// until the next purge_expired tick (the sharded store's wheel keeps
  /// that window to one maintenance interval).
  virtual std::size_t size() const = 0;
  /// Backend label for logs/bench rows.
  virtual std::string_view name() const = 0;
  /// Visits every stored binding -- expired-but-unpurged entries included;
  /// callers filter by expiry themselves. This is the replica-handoff
  /// iteration the P2P ring needs when membership changes (a node must
  /// re-home or re-replicate what it holds). The sharded backend holds
  /// each shard's write lock while visiting it, so the callback must not
  /// reenter the store.
  virtual void for_each(
      const std::function<void(const std::string& aor,
                               const ContactBinding& binding)>& fn) const = 0;
};

/// The seed's backend: one ordered map, scans to expire. Correct, simple,
/// single-threaded -- the baseline row of bench_registrar.
class SingleMapStore final : public BindingStore {
 public:
  void upsert(const std::string& aor, const Uri& contact,
              TimePoint expires) override;
  bool erase(const std::string& aor) override;
  std::optional<ContactBinding> lookup(const std::string& aor,
                                       TimePoint now) const override;
  std::size_t purge_expired(TimePoint now) override;
  std::size_t size() const override { return bindings_.size(); }
  std::string_view name() const override { return "single-map"; }
  void for_each(
      const std::function<void(const std::string&, const ContactBinding&)>&
          fn) const override;

 private:
  std::map<std::string, ContactBinding> bindings_;
};

/// 64-bit string hash (FNV-1a finalized with a splitmix round): the one
/// hash both the shard ring and the P2P resolver's Chord-lite ring key on,
/// so a gateway and a provider agree on AOR placement by construction.
std::uint64_t hash_aor(std::string_view aor);

class ShardedBindingStore final : public BindingStore {
 public:
  struct Config {
    std::size_t shards = 8;
    /// Initial slots per shard (rounded up to a power of two).
    std::size_t initial_capacity = 64;
    /// Timer-wheel size: `wheel_slots` buckets of kWheelGranularity each;
    /// bindings further out than the wheel horizon go to the last bucket
    /// and are re-examined when it comes due.
    std::size_t wheel_slots = 4096;
  };

  ShardedBindingStore();
  explicit ShardedBindingStore(Config config);
  ~ShardedBindingStore() override;

  ShardedBindingStore(const ShardedBindingStore&) = delete;
  ShardedBindingStore& operator=(const ShardedBindingStore&) = delete;

  void upsert(const std::string& aor, const Uri& contact,
              TimePoint expires) override;
  bool erase(const std::string& aor) override;
  std::optional<ContactBinding> lookup(const std::string& aor,
                                       TimePoint now) const override;
  std::size_t purge_expired(TimePoint now) override;
  std::size_t size() const override;
  std::string_view name() const override { return "sharded"; }
  void for_each(
      const std::function<void(const std::string&, const ContactBinding&)>&
          fn) const override;

  std::size_t shard_count() const { return shards_.size(); }
  /// Which shard owns `aor` on the consistent-hash ring (bench/test
  /// introspection; also the distribution check's probe).
  std::size_t shard_of(std::string_view aor) const;
  /// Bindings stored in one shard.
  std::size_t shard_size(std::size_t shard) const;

 private:
  static constexpr std::uint64_t kIdleEpoch = ~0ull;
  static constexpr std::size_t kMaxReaders = 256;
  /// Ring points per shard; more points -> smoother distribution.
  static constexpr std::size_t kVirtualNodes = 32;
  static constexpr Duration kWheelGranularity = seconds(1);

  /// Immutable once published; replaced wholesale on refresh.
  struct Entry {
    std::uint64_t hash = 0;
    std::string aor;
    Uri contact;
    TimePoint expires{};
  };
  /// Tombstone marker: slot was occupied, probes continue past it.
  static Entry* tombstone() {
    static Entry t;
    return &t;
  }

  /// Open-addressing slot array. Slots hold published Entry pointers;
  /// capacity is a power of two, linear probing.
  struct Table {
    explicit Table(std::size_t capacity)
        : mask(capacity - 1),
          slots(std::make_unique<std::atomic<Entry*>[]>(capacity)) {}
    std::size_t mask;
    std::unique_ptr<std::atomic<Entry*>[]> slots;
    std::size_t capacity() const { return mask + 1; }
  };

  struct WheelItem {
    std::uint64_t hash;
    std::string aor;
    TimePoint expires;  // the expiry this item was filed under
  };

  struct Shard {
    mutable std::mutex write_mutex;
    std::atomic<Table*> table{nullptr};
    std::size_t used = 0;             // occupied + tombstoned slots
    std::atomic<std::size_t> size{0};  // live entries
    std::vector<std::vector<WheelItem>> wheel;
    // Deferred reclamation, guarded by write_mutex.
    std::vector<std::pair<std::uint64_t, Entry*>> retired_entries;
    std::vector<std::pair<std::uint64_t, Table*>> retired_tables;
  };

  struct alignas(64) ReaderSlot {
    std::atomic<std::uint64_t> epoch{kIdleEpoch};
  };

  /// Pins the calling thread's reader slot to the current epoch for the
  /// duration of a lookup; unpin on destruction. Threads beyond
  /// kMaxReaders fall back to taking the shard's write mutex (correct,
  /// just not lock-free).
  class ReadGuard;

  std::size_t reader_slot_index() const;
  std::size_t shard_for_hash(std::uint64_t hash) const;
  void retire_entry(Shard& shard, Entry* entry);
  void retire_table(Shard& shard, Table* table);
  /// Frees retired garbage every pinned reader has moved past.
  void collect(Shard& shard);
  std::uint64_t min_pinned_epoch() const;
  void grow(Shard& shard);
  /// Writer-side probe: the slot index holding `aor`, or the first
  /// insertable slot (empty or tombstone). Requires write_mutex.
  Entry* find_entry(const Table& table, std::uint64_t hash,
                    std::string_view aor, std::size_t* slot_out) const;
  std::size_t wheel_index(TimePoint expires) const;
  void file_in_wheel(Shard& shard, std::uint64_t hash, const std::string& aor,
                     TimePoint expires);

  Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;  // point -> shard
  std::vector<std::size_t> wheel_cursor_;  // per shard: next due bucket
  std::vector<TimePoint> wheel_floor_;     // per shard: time cursor sits at
  std::atomic<std::uint64_t> global_epoch_{1};
  std::uint64_t store_id_ = 0;  // reader-slot cache key, process-unique
  mutable std::atomic<std::uint32_t> reader_count_{0};
  mutable std::array<ReaderSlot, kMaxReaders> readers_;
};

}  // namespace siphoc::sip
