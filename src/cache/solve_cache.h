// In-memory LRU cache for solve results, keyed by canonical form.
//
// The Solver facade (src/core/solver.h, SolveOptions::cache) canonicalizes
// the instance and composes the cache key from the canonical key plus an
// options fingerprint; InFlightTable::resolve (cache/inflight.h) is the one
// path that looks the key up here and inserts a solve's result. The cache
// itself is deliberately dumb: string keys in, SolveOutcome values
// (core/status.h) out, in *canonical* symbol space — the facade permutes
// the codes back through the SymbolPermutation of the instance it serves.
// It never inspects constraint sets and never depends on the solver, which
// is also what lets it compile into encodesat_core underneath core/solver
// without a dependency cycle.
//
// Soundness: lookups compare the full key string, so a hash collision can
// never return a wrong result.
//
// Concurrency: one mutex guards the one LRU list, its index, the byte
// budget and the hit/miss/insert/evict counts. Every solve's lookup runs
// under its in-flight table's lock (cache/inflight.h), and the service
// shares one table, so finer locking here would never let two of its
// lookups run at once.
//
// Persistence: save()/load() serialize entries in the `encodesat-cache-v1`
// text format (docs/FORMATS.md) for warm-starting batch runs
// (`--cache-save` / `--cache-load` on the CLI).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/status.h"

namespace encodesat {

struct CacheConfig {
  /// Byte budget of the one LRU list: least-recently-used entries are
  /// evicted once it is exceeded. 0 means unlimited.
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

  /// Inserts or replaces the entry for `key`, then evicts LRU entries until
  /// the cache fits its byte budget.
  void insert(const std::string& key, SolveOutcome value);

  /// Approximate heap footprint of one value for the byte budget (an entry
  /// also charges its key's length).
  static std::size_t approx_bytes(const SolveOutcome& value);

  /// Point-in-time counts and footprint.
  CacheStats stats() const;

  /// Serializes every entry in `encodesat-cache-v1` format. Entries are
  /// emitted in key order so the output is deterministic.
  std::string to_text() const;
  /// Merges entries from `text` (on top of current contents; loaded entries
  /// count as inserts and respect the byte budget). Returns false and fills
  /// `*error` ("line N: ...") on a malformed header or entry: a signed,
  /// non-decimal or overflowing number, `bits` above 64, a code wider than
  /// `bits`, or a fingerprint that is not 16 hex digits.
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

  void evict_locked();

  const CacheConfig config_;
  mutable std::mutex mu_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace encodesat
