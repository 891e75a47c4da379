// Sharded in-memory LRU cache for solve results, keyed by canonical form.
//
// The Solver facade (src/core/solver.h, SolveOptions::cache) canonicalizes
// the instance, composes the cache key from the canonical key plus an
// options fingerprint, and consults this cache before running the pipeline.
// The cache itself is deliberately dumb: string keys in, SolveOutcome values
// (core/status.h) out, in *canonical* symbol space — the facade permutes
// the codes back through the SymbolPermutation of the instance it serves.
// It never inspects constraint sets and never depends on the solver, which
// is also what lets it compile into encodesat_core underneath core/solver
// without a dependency cycle.
//
// Soundness: lookups compare the full key string; the key's hash only picks
// its shard, so a hash collision can never return a wrong result.
//
// Concurrency: keys are distributed over shards by hash; each shard has its
// own mutex, LRU list and byte budget (total budget / shards), so parallel
// solves on different instances rarely contend. Hit/miss/insert/evict
// counts are process-wide atomics.
//
// Persistence: save()/load() serialize entries in the `encodesat-cache-v1`
// text format (docs/FORMATS.md) for warm-starting batch runs
// (`--cache-save` / `--cache-load` on the CLI).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/status.h"

namespace encodesat {

struct CacheConfig {
  /// Number of independent shards (>= 1); keys are distributed by hash.
  std::size_t shards = 8;
  /// Total byte budget across all shards; least-recently-used entries are
  /// evicted per shard once its share (max_bytes / shards) is exceeded.
  /// 0 means unlimited.
  std::size_t max_bytes = 64u << 20;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

class SolveCache {
 public:
  explicit SolveCache(CacheConfig config = {});

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Copies the entry for `key` into `*out` and marks it most recently
  /// used. Counts a hit or a miss.
  bool lookup(const std::string& key, SolveOutcome* out);

  /// Inserts or replaces the entry for `key`, then evicts LRU entries from
  /// the key's shard until the shard fits its byte share.
  void insert(const std::string& key, SolveOutcome value);

  /// Approximate heap footprint of one value for the byte budget (an entry
  /// also charges its key's length).
  static std::size_t approx_bytes(const SolveOutcome& value);

  /// Point-in-time aggregate across shards.
  CacheStats stats() const;

  const CacheConfig& config() const { return config_; }

  /// Serializes every entry in `encodesat-cache-v1` format. Entries are
  /// emitted in key order so the output is deterministic.
  std::string to_text() const;
  /// Merges entries from `text` (on top of current contents; loaded entries
  /// count as inserts and respect the byte budget). Returns false and fills
  /// `*error` on a malformed header or entry.
  bool from_text(const std::string& text, std::string* error = nullptr);

  /// to_text()/from_text() against a file. Returns false and fills `*error`
  /// (when non-null) on I/O or parse failure.
  bool save(const std::string& path, std::string* error = nullptr) const;
  bool load(const std::string& path, std::string* error = nullptr);

 private:
  struct Entry {
    std::string key;
    SolveOutcome value;
  };
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
  };

  Shard& shard_for(const std::string& key);
  void evict_locked(Shard& s);
  std::size_t shard_budget() const {
    return config_.max_bytes == 0 ? 0 : config_.max_bytes / config_.shards;
  }

  CacheConfig config_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace encodesat
