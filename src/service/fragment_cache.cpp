#include "service/fragment_cache.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace mloc::service {

std::size_t FragmentCache::KeyHash::operator()(
    const FragmentKey& key) const noexcept {
  std::uint64_t h = fnv1a64(
      {reinterpret_cast<const std::uint8_t*>(key.var.data()), key.var.size()});
  h ^= static_cast<std::uint64_t>(key.bin) * kFnvPrime;
  h ^= (static_cast<std::uint64_t>(key.chunk) + 0x9e3779b97f4a7c15ull) *
       kFnvPrime;
  h ^= (key.epoch + 0xc2b2ae3d27d4eb4full) * kFnvPrime;
  return static_cast<std::size_t>(h);
}

FragmentCache::FragmentCache(Config cfg) : cfg_(cfg) {
  MLOC_CHECK(cfg_.shards >= 1);
  shard_budget_ = cfg_.budget_bytes / static_cast<std::uint64_t>(cfg_.shards);
  shards_.reserve(static_cast<std::size_t>(cfg_.shards));
  for (int s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

FragmentCache::Shard& FragmentCache::shard_for(const FragmentKey& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

std::shared_ptr<const FragmentData> FragmentCache::lookup(
    const FragmentKey& key) {
  Shard& shard = shard_for(key);
  sync::MutexLock lock(shard.mutex);
  ++shard.stats.lookups;
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  ++shard.stats.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // touch
  return it->second->data;
}

namespace {

/// True when `cand` holds everything `old` holds and adds something: the
/// positions, the whole-value buffer and the node bitmap if `old` has
/// them, and a byte-plane prefix at least as deep.
bool supersedes(const FragmentData& cand, const FragmentData& old) {
  const bool covers = (old.positions.empty() || !cand.positions.empty()) &&
                      (old.values.empty() || !cand.values.empty()) &&
                      (!old.has_node || cand.has_node) &&
                      cand.depth() >= old.depth();
  const bool adds = (old.positions.empty() && !cand.positions.empty()) ||
                    (old.values.empty() && !cand.values.empty()) ||
                    (!old.has_node && cand.has_node) ||
                    cand.depth() > old.depth();
  return covers && adds;
}

}  // namespace

void FragmentCache::insert(const FragmentKey& key,
                           std::shared_ptr<const FragmentData> data) {
  if (data == nullptr) return;
  const std::uint64_t bytes = data->byte_size();
  Shard& shard = shard_for(key);
  sync::MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // A candidate that supersedes the entry is adopted as it is: published
    // FragmentData is immutable, so swapping the pointer is the whole
    // upgrade. Anything else only counts as a use of the entry.
    Entry& existing = *it->second;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    if (!supersedes(*data, *existing.data)) return;
    shard.bytes -= existing.bytes;
    shard.bytes += bytes;
    existing.data = std::move(data);
    existing.bytes = bytes;
    ++shard.stats.upgrades;
  } else {
    shard.lru.push_front(Entry{key, std::move(data), bytes});
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += bytes;
    ++shard.stats.insertions;
  }
  evict_to_budget(shard);
  shard.stats.bytes_cached = shard.bytes;
  shard.stats.entries = shard.index.size();
}

void FragmentCache::evict_to_budget(Shard& shard) {
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
}

void FragmentCache::erase(const std::string& var) {
  // Entries of one variable scatter across shards (the key hash mixes bin
  // and chunk), so every shard is scanned. Runs once per re-ingest; shard
  // locks are taken one at a time, so concurrent queries only ever wait on
  // the shard being swept.
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    sync::MutexLock lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->key.var == var) {
        shard.bytes -= it->bytes;
        shard.index.erase(it->key);
        it = shard.lru.erase(it);
      } else {
        ++it;
      }
    }
    shard.stats.bytes_cached = shard.bytes;
    shard.stats.entries = shard.index.size();
  }
}

void FragmentCache::clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    sync::MutexLock lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
    shard.stats.bytes_cached = 0;
    shard.stats.entries = 0;
  }
}

// Documented thread-safety-analysis escape (1 of 2 repo-wide; see DESIGN.md
// §13): the coherent snapshot holds *every* shard lock at once — a lock set
// whose size is a runtime value (cfg_.shards), which the static analysis
// cannot represent. The discipline is still simple and auditable: locks are
// acquired in ascending shard order (the only place more than one shard lock
// is ever held), all counters are read, then all locks are released in
// reverse order.
FragmentCache::Stats FragmentCache::stats() const MLOC_NO_THREAD_SAFETY_ANALYSIS {
  // Hold every shard lock while summing so the snapshot is coherent: without
  // this, a reader racing an insert could observe `entries` from one shard
  // state and `bytes_cached`/`lookups` from another, and cross-counter
  // invariants (lookups == hits + misses) could appear violated.
  for (const auto& shard : shards_) shard->mutex.lock();
  Stats out;
  for (const auto& shard : shards_) {
    out.lookups += shard->stats.lookups;
    out.hits += shard->stats.hits;
    out.misses += shard->stats.misses;
    out.insertions += shard->stats.insertions;
    out.upgrades += shard->stats.upgrades;
    out.evictions += shard->stats.evictions;
    out.bytes_cached += shard->bytes;
    out.entries += shard->index.size();
  }
  for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
    (*it)->mutex.unlock();
  }
  return out;
}

}  // namespace mloc::service
