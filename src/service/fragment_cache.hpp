// Sharded LRU cache of decompressed fragment payloads — the serving
// layer's highest-leverage component (exploratory workloads revisit the
// same regions and precision prefixes over and over).
//
// Keyed by (variable, bin, chunk); the entry stores the deepest decoded
// PLoD byte-group prefix seen so far (or the whole decoded buffer in
// whole-value mode) with the fragment's positions. Because a prefix at
// depth D answers any request at level <= D, a level-3 entry serves a
// level-2 query outright, and a level-7 query only fetches the missing
// planes 3..6 from the PFS (exec::decode_fragment does the splice and
// offers one candidate holding positions and planes together; this class
// only stores and evicts). A candidate that supersedes the entry (holds
// all it holds, and more) replaces it by pointer; any other only touches
// it.
//
// Eviction is byte-budgeted LRU, independently per shard (shard budget =
// total budget / shards). Sharding by key hash keeps lock contention flat
// as the client count grows; entries are handed out as shared_ptr, so an
// eviction never invalidates a payload a concurrent query is reading.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/store.hpp"
#include "util/sync.hpp"

namespace mloc::service {

class FragmentCache final : public FragmentProvider {
 public:
  struct Config {
    std::uint64_t budget_bytes = 64ull << 20;  ///< total across shards
    int shards = 8;
  };

  /// Global counters. stats() sums these under all shard locks at once, so
  /// a snapshot is coherent even while queries run (lookups == hits +
  /// misses holds in every snapshot).
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;        ///< lookup returned an entry
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;  ///< new keys admitted
    /// existing entries replaced by a candidate that supersedes them
    std::uint64_t upgrades = 0;
    std::uint64_t evictions = 0;   ///< entries dropped to fit the budget
    std::uint64_t bytes_cached = 0;
    std::uint64_t entries = 0;

    bool operator==(const Stats&) const = default;
  };

  FragmentCache() : FragmentCache(Config{}) {}
  explicit FragmentCache(Config cfg);

  FragmentCache(const FragmentCache&) = delete;
  FragmentCache& operator=(const FragmentCache&) = delete;

  // FragmentProvider interface (thread-safe).
  std::shared_ptr<const FragmentData> lookup(const FragmentKey& key) override;
  void insert(const FragmentKey& key,
              std::shared_ptr<const FragmentData> data) override;
  /// Drop all entries of `var` across every epoch (re-ingest invalidation).
  void erase(const std::string& var) override;

  /// Drop every entry (budget and counters for bytes/entries reset; the
  /// cumulative hit/miss/eviction counters are kept).
  void clear();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

 private:
  struct KeyHash {
    std::size_t operator()(const FragmentKey& key) const noexcept;
  };
  struct Entry {
    FragmentKey key;
    std::shared_ptr<const FragmentData> data;
    std::uint64_t bytes = 0;
  };
  struct Shard {
    mutable sync::Mutex mutex;
    /// front = most recently used
    std::list<Entry> lru MLOC_GUARDED_BY(mutex);
    std::unordered_map<FragmentKey, std::list<Entry>::iterator, KeyHash> index
        MLOC_GUARDED_BY(mutex);
    std::uint64_t bytes MLOC_GUARDED_BY(mutex) = 0;
    /// bytes_cached/entries maintained on the fly
    Stats stats MLOC_GUARDED_BY(mutex);
  };

  Shard& shard_for(const FragmentKey& key);
  /// Pop LRU entries until the shard fits its budget. Caller holds the lock.
  void evict_to_budget(Shard& shard) MLOC_REQUIRES(shard.mutex);

  Config cfg_;
  std::uint64_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mloc::service
