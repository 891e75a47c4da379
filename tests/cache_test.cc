// Tests for the canonicalization + solve-cache subsystem (src/cache/):
// renaming invariance of the canonical form, LRU/byte-budget behavior of
// the cache, the encodesat-cache-v1 persistence round-trip, and
// the facade-level guarantees (hit == miss bit-identity, thread-count
// invariant counter fingerprints with the cache enabled).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cache/canonical.h"
#include "cache/solve_cache.h"
#include "core/constraints.h"
#include "core/solver.h"
#include "fuzz/reproducer.h"
#include "obs/counters.h"

namespace encodesat {
namespace {

ConstraintSet quickstart_constraints() {
  return parse_constraints(
      "face a b\n"
      "face b c d\n"
      "dominance a c\n"
      "disjunctive a c d\n");
}

ConstraintSet mixed_constraints() {
  return parse_constraints(
      "face s0 s1 s2\n"
      "face s1 s3\n"
      "face s4 s5\n"
      "dominance s0 s3\n"
      "dominance s5 s2\n"
      "disjunctive s0 s2 s4\n"
      "extdisjunctive s1 : s0 s3 | s4 s5\n");
}

ConstraintSet extension_constraints() {
  return parse_constraints(
      "face a b\n"
      "face c d\n"
      "distance2 a c\n"
      "nonface e a c\n");
}

// One constraint of every class with every symbol-id field filled: a face
// with don't-cares, a dominance, a disjunctive, an extended disjunctive
// with two conjunctions of two members, a distance-2 pair written high id
// first under the canonical labeling, a non-face, and one symbol (h) that
// no constraint references.
ConstraintSet every_field_constraints() {
  return parse_constraints(
      "face a b [c d]\n"
      "dominance a e\n"
      "disjunctive e b c\n"
      "extdisjunctive f : a b | c e\n"
      "symbol h\n"
      "distance2 a g\n"
      "nonface b d g\n");
}

// A rendering of `cs` with symbols renamed by `perm` and the constraint
// lines emitted in a shuffled order — the same abstract instance as far as
// canonicalization is concerned.
ConstraintSet shuffled_rendering(const ConstraintSet& cs,
                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::uint32_t n = cs.num_symbols();
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::shuffle(perm.begin(), perm.end(), rng);
  const ConstraintSet renamed = apply_symbol_permutation(cs, perm);

  // Reorder the constraint lines of the textual rendering and re-parse, so
  // symbols are also interned in a different first-appearance order.
  std::vector<std::string> lines;
  std::istringstream in(renamed.to_string());
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  std::shuffle(lines.begin(), lines.end(), rng);
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return parse_constraints(text);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// One cache filled by an encoded and an infeasible exact-pipeline solve
// (the bundled Figure 8 and Figure 4 instances) and an encoded extension-
// pipeline solve, rendered in encodesat-cache-v1.
std::string golden_cache_text() {
  SolveCache cache;
  SolveOptions opts;
  opts.cache.store = &cache;
  for (const char* name : {"mixed.constraints", "infeasible.constraints"})
    (void)Solver(parse_constraints(read_file(
                     std::string(ENCODESAT_EXAMPLES_DATA_DIR) + "/" + name)))
        .encode(opts);
  (void)Solver(extension_constraints()).encode(opts);
  return cache.to_text();
}

SolveOutcome make_entry(std::size_t codes) {
  SolveOutcome v;
  v.status = SolveOutcome::Status::kEncoded;
  v.encoding.bits = 3;
  v.encoding.codes.assign(codes, 5);
  v.minimal = true;
  v.num_primes = 7;
  return v;
}

TEST(Canonical, InvariantUnderSymbolRenamingAndReordering) {
  for (const ConstraintSet& cs :
       {quickstart_constraints(), mixed_constraints(),
        extension_constraints()}) {
    const Canonicalization base = canonicalize(cs);
    EXPECT_TRUE(base.canon.exact);
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      const Canonicalization other =
          canonicalize(shuffled_rendering(cs, seed));
      EXPECT_EQ(base.canon.key, other.canon.key) << "seed " << seed;
    }
  }
}

TEST(Canonical, DistinguishesDifferentInstances) {
  const Canonicalization a = canonicalize(quickstart_constraints());
  const Canonicalization b = canonicalize(mixed_constraints());
  const Canonicalization c = canonicalize(extension_constraints());
  EXPECT_NE(a.canon.key, b.canon.key);
  EXPECT_NE(a.canon.key, c.canon.key);
  EXPECT_NE(b.canon.key, c.canon.key);
}

TEST(Canonical, PermutationRoundTrips) {
  const ConstraintSet cs = mixed_constraints();
  const Canonicalization cz = canonicalize(cs);
  const std::uint32_t n = cs.num_symbols();
  ASSERT_EQ(cz.perm.to_canonical.size(), n);
  ASSERT_EQ(cz.perm.from_canonical.size(), n);
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(cz.perm.from_canonical[cz.perm.to_canonical[i]], i);
  // Applying the permutation to the original reproduces the canonical set's
  // structure (same canonical key trivially, but also the same rendering).
  const ConstraintSet mapped = apply_symbol_permutation(cs, cz.perm.to_canonical);
  EXPECT_EQ(canonicalize(mapped).canon.key, cz.canon.key);
}

// Names travel with their symbols, so a permutation renders the same text
// and its inverse restores the symbol table too. Every symbol moves, so an
// id field the permutation missed would render another symbol's name.
TEST(Canonical, PermutationAndInverseRestoreRendering) {
  const ConstraintSet cs = every_field_constraints();
  EXPECT_EQ(cs.to_string(),
            "symbol h\n"
            "face a b [c d ]\n"
            "dominance a e\n"
            "disjunctive e b c\n"
            "extdisjunctive f : a b | c e\n"
            "distance2 a g\n"
            "nonface b d g\n");
  const std::uint32_t n = cs.num_symbols();
  std::vector<std::uint32_t> rotate(n), inverse(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    rotate[i] = (i + 1) % n;
    inverse[rotate[i]] = i;
  }
  const ConstraintSet moved = apply_symbol_permutation(cs, rotate);
  EXPECT_EQ(moved.symbols().name(0), cs.symbols().name(n - 1));
  EXPECT_EQ(moved.to_string(), cs.to_string());
  const ConstraintSet back = apply_symbol_permutation(moved, inverse);
  EXPECT_EQ(back.symbols().names(), cs.symbols().names());
  EXPECT_EQ(back.to_string(), cs.to_string());
}

// Two shuffled renderings of the same reproducer file canonicalize to the
// same key, so they share one cache entry.
TEST(Canonical, ShuffledReproducerRenderingsHashIdentically) {
  std::vector<std::string> files;
  const std::filesystem::path dir = ENCODESAT_FUZZ_CORPUS_DIR;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".repro")
      files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const std::string& path : files) {
    ParseError err;
    const auto repro = load_reproducer_file(path, &err);
    ASSERT_TRUE(repro.has_value()) << path << ": " << err.to_string();
    const ConstraintSet& cs = repro->constraints;
    const std::string k1 = canonicalize(shuffled_rendering(cs, 11)).canon.key;
    const std::string k2 = canonicalize(shuffled_rendering(cs, 42)).canon.key;
    EXPECT_EQ(k1, k2) << path;
    EXPECT_EQ(k1, canonicalize(cs).canon.key) << path;
  }
}

TEST(SolveCacheLru, EvictsLeastRecentlyUsedFirst) {
  // Budget sized for ~3 entries.
  const std::size_t entry_bytes = SolveCache::approx_bytes(make_entry(4)) + 1;
  SolveCache cache(CacheConfig{3 * entry_bytes + 16});
  cache.insert("a", make_entry(4));
  cache.insert("b", make_entry(4));
  cache.insert("c", make_entry(4));
  SolveOutcome out;
  ASSERT_TRUE(cache.lookup("a", &out));  // a is now most recently used
  cache.insert("d", make_entry(4));      // evicts b, the LRU entry
  EXPECT_FALSE(cache.lookup("b", &out));
  EXPECT_TRUE(cache.lookup("a", &out));
  EXPECT_TRUE(cache.lookup("c", &out));
  EXPECT_TRUE(cache.lookup("d", &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SolveCacheLru, ByteBudgetIsEnforced) {
  const std::size_t budget = 4 * (SolveCache::approx_bytes(make_entry(8)) + 8);
  SolveCache cache(CacheConfig{budget});
  for (int i = 0; i < 64; ++i)
    cache.insert("key" + std::to_string(i), make_entry(8));
  const CacheStats s = cache.stats();
  EXPECT_LE(s.bytes, budget);
  EXPECT_LT(s.entries, 64u);
  EXPECT_EQ(s.inserts, 64u);
  EXPECT_EQ(s.entries + s.evictions, 64u);
  // The most recent insert always survives (eviction never removes the
  // just-touched entry).
  SolveOutcome out;
  EXPECT_TRUE(cache.lookup("key63", &out));
}

TEST(SolveCacheLru, UnlimitedBudgetNeverEvicts) {
  SolveCache cache(CacheConfig{0});
  for (int i = 0; i < 100; ++i)
    cache.insert("key" + std::to_string(i), make_entry(2));
  EXPECT_EQ(cache.stats().entries, 100u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SolveCachePersist, TextRoundTripPreservesEntries) {
  SolveCache cache(CacheConfig{0});
  SolveOutcome a = make_entry(3);
  a.uncovered = {1, 4};
  a.stats_fingerprint = 0xdeadbeefu;
  SolveOutcome b;  // infeasible: no codes
  SolveOutcome c;  // the format also carries truncated outcomes
  c.status = SolveOutcome::Status::kTruncated;
  c.truncation = Truncation::kNodeLimit;
  cache.insert("n3;f0,1;#0123", a);
  cache.insert("n2;f0;#4567", b);
  cache.insert("n2;f1;#89ab", c);

  SolveCache loaded(CacheConfig{0});
  std::string err;
  ASSERT_TRUE(loaded.from_text(cache.to_text(), &err)) << err;
  SolveOutcome out;
  ASSERT_TRUE(loaded.lookup("n3;f0,1;#0123", &out));
  EXPECT_EQ(out.encoding.codes, a.encoding.codes);
  EXPECT_EQ(out.uncovered, a.uncovered);
  EXPECT_EQ(out.stats_fingerprint, a.stats_fingerprint);
  EXPECT_EQ(out.minimal, a.minimal);
  ASSERT_TRUE(loaded.lookup("n2;f0;#4567", &out));
  EXPECT_EQ(out.status, SolveOutcome::Status::kInfeasible);
  EXPECT_TRUE(out.encoding.codes.empty());
  ASSERT_TRUE(loaded.lookup("n2;f1;#89ab", &out));
  EXPECT_EQ(out.status, SolveOutcome::Status::kTruncated);
  EXPECT_EQ(out.truncation, Truncation::kNodeLimit);
  // Deterministic rendering: serializing the copy reproduces the text.
  EXPECT_EQ(cache.to_text(), loaded.to_text());
}

TEST(SolveCachePersist, RejectsMalformedInput) {
  SolveCache cache;
  std::string err;
  EXPECT_FALSE(cache.from_text("not-a-cache-file\n", &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(
      cache.from_text("encodesat-cache-v1\nentry k\nbogus 1\nend\n", &err));

  // Every number is a plain unsigned decimal token, `bits` is at most 64,
  // codes fit in `bits` bits and the fingerprint is 16 hex digits; each
  // rejection names its line.
  const std::string valid =
      "encodesat-cache-v1\n"
      "entry k\n"
      "status encoded\n"
      "bits 2\n"
      "codes 1 0 2 3\n"
      "minimal 1\n"
      "truncation none\n"
      "uncovered 4\n"
      "counters 8 5 4 4 0 0 3\n"
      "fingerprint d7e37b96bda470b4\n"
      "end\n";
  ASSERT_TRUE(SolveCache().from_text(valid, &err)) << err;
  const struct {
    std::string from, to;
    int line;
  } bad[] = {
      {"codes 1 0 2 3", "codes -1 0 2 3", 5},
      {"codes 1 0 2 3", "codes 1 0 2 18446744073709551616", 5},
      {"codes 1 0 2 3", "codes 1 0 2 4", 5},
      {"bits 2", "bits 99", 4},
      {"bits 2", "bits +2", 4},
      {"minimal 1", "minimal +1", 6},
      {"uncovered 4", "uncovered -4", 8},
      {"counters 8 5 4 4 0 0 3", "counters 8 5 4 4 0 0 -3", 9},
      {"fingerprint d7e37b96bda470b4", "fingerprint -1", 10},
      {"fingerprint d7e37b96bda470b4", "fingerprint 0xd7e37b96bda470", 10},
  };
  for (const auto& b : bad) {
    std::string text = valid;
    text.replace(text.find(b.from), b.from.size(), b.to);
    err.clear();
    EXPECT_FALSE(SolveCache().from_text(text, &err)) << b.to;
    EXPECT_EQ(err.rfind("line " + std::to_string(b.line) + ": ", 0), 0u)
        << b.to << " -> " << err;
  }
}

// Pins the encodesat-cache-v1 bytes: status, codes, minimal, truncation,
// uncovered, both pipelines' counters and the stats fingerprint, for the
// writer and (by re-rendering a parsed copy) for the reader. Regenerate
// with
//
//   ./build/tests/encodesat_tests --gtest_also_run_disabled_tests
//       --gtest_filter='SolveCacheGolden.DISABLED_PrintCurrent'
//
// only for a deliberate format change, which docs/FORMATS.md must record.
TEST(SolveCacheGolden, CacheV1TextMatchesGoldenFile) {
  const std::string golden =
      read_file(std::string(ENCODESAT_TESTS_DATA_DIR) + "/cache_v1.golden");
  EXPECT_EQ(golden_cache_text(), golden);
  SolveCache loaded;
  std::string err;
  ASSERT_TRUE(loaded.from_text(golden, &err)) << err;
  EXPECT_EQ(loaded.to_text(), golden);
}

// Not a check: prints the current rendering for regeneration.
TEST(SolveCacheGolden, DISABLED_PrintCurrent) {
  std::printf("%s", golden_cache_text().c_str());
}

// Pins the canonical key of an instance that fills every symbol-id field
// of the six classes. The key is the cache-v1 entry name, and no entry of
// cache_v1.golden has a don't-care part or an extended disjunctive, so a
// change to how any field is relabeled or ordered shows up here. The
// materialized canonical instance is pinned with it.
TEST(SolveCacheGolden, CanonicalKeyCoversEverySymbolField) {
  const ConstraintSet cs = every_field_constraints();
  const Canonicalization cz = canonicalize(cs);
  EXPECT_TRUE(cz.canon.exact);
  EXPECT_EQ(cz.canon.key, "n8;f5,7|3,6;d7>2;j2=5,6;x4=2.6|5.7;t0,7;u0,3,5;");
  EXPECT_EQ(cz.canon.set.to_string(),
            "symbol v1\n"
            "face v5 v7 [v3 v6 ]\n"
            "dominance v7 v2\n"
            "disjunctive v2 v5 v6\n"
            "extdisjunctive v4 : v2 v6 | v5 v7\n"
            "distance2 v0 v7\n"
            "nonface v0 v3 v5\n");
  // "distance2 a g" is high id first under the canonical labeling, so
  // the key's t0,7 shows the pair normalized low id first.
  const std::vector<std::uint32_t>& to_canonical = cz.perm.to_canonical;
  EXPECT_GT(to_canonical[cs.symbols().at("a")],
            to_canonical[cs.symbols().at("g")]);
  for (std::uint64_t seed : {5u, 6u})
    EXPECT_EQ(canonicalize(shuffled_rendering(cs, seed)).canon.key,
              cz.canon.key)
        << "seed " << seed;
}

// Save a warmed cache to disk, load it fresh, and re-solve the same
// instances: every solve must be a hit and bit-identical to the original.
TEST(SolveCachePersist, FileRoundTripServesAllHits) {
  const std::vector<ConstraintSet> sets = {
      quickstart_constraints(), mixed_constraints(), extension_constraints()};
  SolveCache warm;
  SolveOptions opts;
  opts.cache.store = &warm;
  std::vector<SolveResult> first;
  for (const ConstraintSet& cs : sets) first.push_back(Solver(cs).encode(opts));
  ASSERT_EQ(warm.stats().hits, 0u);
  ASSERT_EQ(warm.stats().misses, sets.size());

  const std::string path =
      (std::filesystem::temp_directory_path() / "encodesat_cache_test.cache")
          .string();
  std::string err;
  ASSERT_TRUE(warm.save(path, &err)) << err;
  SolveCache loaded;
  ASSERT_TRUE(loaded.load(path, &err)) << err;
  std::remove(path.c_str());

  SolveOptions lopts;
  lopts.cache.store = &loaded;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const SolveResult r = Solver(sets[i]).encode(lopts);
    EXPECT_TRUE(r.from_cache) << i;
    EXPECT_EQ(r.status, first[i].status) << i;
    EXPECT_EQ(r.encoding.bits, first[i].encoding.bits) << i;
    EXPECT_EQ(r.encoding.codes, first[i].encoding.codes) << i;
    EXPECT_EQ(r.minimal, first[i].minimal) << i;
    EXPECT_EQ(r.num_primes, first[i].num_primes) << i;
  }
  EXPECT_EQ(loaded.stats().hits, sets.size());
  EXPECT_EQ(loaded.stats().misses, 0u);
}

// The facade contract: a warm hit is bit-identical to the cold miss that
// populated it, including for a symbol-renamed copy of the instance.
TEST(SolverCache, HitMatchesMissBitForBit) {
  const ConstraintSet cs = mixed_constraints();
  SolveCache cache;
  SolveOptions opts;
  opts.cache.store = &cache;
  const SolveResult cold = Solver(cs).encode(opts);
  const SolveResult hit = Solver(cs).encode(opts);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.status, cold.status);
  EXPECT_EQ(hit.encoding.bits, cold.encoding.bits);
  EXPECT_EQ(hit.encoding.codes, cold.encoding.codes);
  EXPECT_EQ(hit.minimal, cold.minimal);
  EXPECT_EQ(hit.num_initial, cold.num_initial);
  EXPECT_EQ(hit.num_primes, cold.num_primes);
  EXPECT_EQ(hit.num_valid_primes, cold.num_valid_primes);
  EXPECT_NE(hit.stats.find("cache_hit"), nullptr);

  // A renamed copy hits the same entry; its codes come back in its own
  // symbol order, equal to solving it cold.
  const ConstraintSet renamed = shuffled_rendering(cs, 9);
  const SolveResult via_cache = Solver(renamed).encode(opts);
  EXPECT_TRUE(via_cache.from_cache);
  const SolveResult direct = Solver(renamed).encode();
  EXPECT_EQ(via_cache.encoding.codes, direct.encoding.codes);
  EXPECT_EQ(cache.stats().hits, 2u);
}

// A persisted entry whose code count does not match the symbol count of
// the instance it answers is refused, never served with unpermuted codes.
TEST(SolverCache, DamagedEntryAnswersInternal) {
  SolveCache cache;
  std::string err;
  ASSERT_TRUE(cache.from_text("encodesat-cache-v1\n"
                              "entry n4;f0,3;d0>1;d3>0;j3=0,2;"
                              "#4299071d041f6b79\n"
                              "status encoded\n"
                              "bits 2\n"
                              "codes 1 0 2\n"
                              "minimal 1\n"
                              "truncation none\n"
                              "counters 8 5 4 4 0 0 3\n"
                              "fingerprint d7e37b96bda470b4\n"
                              "end\n",
                              &err))
      << err;
  SolveRequest req;
  req.constraints = parse_constraints(read_file(
      std::string(ENCODESAT_EXAMPLES_DATA_DIR) + "/mixed.constraints"));
  req.options.cache.store = &cache;
  const SolveResponse resp = solve(req);
  EXPECT_EQ(cache.stats().hits, 1u) << "the damaged entry is the one served";
  EXPECT_EQ(resp.status, StatusCode::kInternal);
  EXPECT_NE(resp.detail.find("holds 3 codes for 4 symbols"), std::string::npos)
      << resp.detail;
}

TEST(SolverCache, OwnedCacheServesRepeatSolves) {
  const Solver solver(quickstart_constraints());
  SolveOptions opts;
  opts.cache.enabled = true;
  const SolveResult a = solver.encode(opts);
  const SolveResult b = solver.encode(opts);
  EXPECT_FALSE(a.from_cache);
  EXPECT_TRUE(b.from_cache);
  EXPECT_EQ(a.encoding.codes, b.encoding.codes);
}

TEST(SolverCache, DifferentOptionFingerprintsDoNotShareEntries) {
  const ConstraintSet cs = mixed_constraints();
  SolveCache cache;
  SolveOptions a;
  a.cache.store = &cache;
  SolveOptions b = a;
  b.exact.prime_options.max_terms = 12345;  // result-affecting knob
  EXPECT_NE(solve_options_fingerprint(a), solve_options_fingerprint(b));
  (void)Solver(cs).encode(a);
  const SolveResult rb = Solver(cs).encode(b);
  EXPECT_FALSE(rb.from_cache);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// Cache hit/miss counters are outside the metrics fingerprint, so the
// thread-determinism contract holds with the cache enabled: threads=1 and
// threads=4 runs produce identical counter fingerprints.
TEST(SolverCache, CounterFingerprintIsThreadCountInvariant) {
  const ConstraintSet cs = mixed_constraints();
  MetricsRegistry m1, m4;
  SolveCache c1, c4;
  SolveOptions o1;
  o1.exec.threads = 1;
  o1.exec.metrics = &m1;
  o1.cache.store = &c1;
  SolveOptions o4;
  o4.exec.threads = 4;
  o4.exec.metrics = &m4;
  o4.cache.store = &c4;
  // Two solves each: a miss then a hit, so the cache.* counters differ from
  // the pipeline counters' single-run values — the fingerprint must not see
  // them.
  const SolveResult r1a = Solver(cs).encode(o1);
  const SolveResult r1b = Solver(cs).encode(o1);
  const SolveResult r4a = Solver(cs).encode(o4);
  const SolveResult r4b = Solver(cs).encode(o4);
  EXPECT_EQ(r1a.encoding.codes, r4a.encoding.codes);
  EXPECT_EQ(r1b.encoding.codes, r4b.encoding.codes);
  EXPECT_EQ(m1.fingerprint(), m4.fingerprint());
  EXPECT_EQ(m1.fingerprint_hash(), m4.fingerprint_hash());
  // The cache counters themselves are still reported (outside the
  // fingerprint) and saw one miss + one hit per registry.
  EXPECT_EQ(c1.stats().hits, 1u);
  EXPECT_EQ(c4.stats().hits, 1u);
}

}  // namespace
}  // namespace encodesat
