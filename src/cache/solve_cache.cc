#include "cache/solve_cache.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace encodesat {
namespace {

constexpr char kFormatHeader[] = "encodesat-cache-v1";

template <typename T>
void append_list_line(std::string& out, const char* field,
                      const std::vector<T>& values) {
  if (values.empty()) return;
  out += field;
  for (T v : values) {
    out += ' ';
    out += std::to_string(v);
  }
  out += '\n';
}

// Reads the rest of the line as numbers, each a plain decimal token: digits
// only, no sign, no overflow (`>>` into an unsigned type would take "-1").
template <typename T>
bool parse_list(std::istringstream& in, std::vector<T>* out) {
  std::string tok;
  while (in >> tok) {
    T v = 0;
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
    if (ec != std::errc() || ptr != end) return false;
    out->push_back(v);
  }
  return true;
}

// One number on the rest of the line, at most `max`.
bool parse_one(std::istringstream& in, std::uint64_t max, std::uint64_t* v) {
  std::vector<std::uint64_t> values;
  if (!parse_list(in, &values) || values.size() != 1 || values[0] > max)
    return false;
  *v = values[0];
  return true;
}

}  // namespace

SolveCache::SolveCache(CacheConfig config) : config_(config) {}

std::size_t SolveCache::approx_bytes(const SolveOutcome& value) {
  return sizeof(SolveOutcome) +
         value.encoding.codes.size() * sizeof(std::uint64_t) +
         value.uncovered.size() * sizeof(std::size_t);
}

bool SolveCache::lookup(const std::string& key, SolveOutcome* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  if (out) *out = it->second->value;
  ++hits_;
  return true;
}

void SolveCache::insert(const std::string& key, SolveOutcome value) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t entry_bytes = key.size() + approx_bytes(value);
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->key.size() + approx_bytes(it->second->value);
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(value)});
    index_.emplace(key, lru_.begin());
  }
  bytes_ += entry_bytes;
  ++inserts_;
  evict_locked();
}

void SolveCache::evict_locked() {
  if (config_.max_bytes == 0) return;  // unlimited
  // Never evict the entry just touched: a single oversized entry stays
  // resident (and alone) rather than making its own insert a no-op.
  while (bytes_ > config_.max_bytes && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.key.size() + approx_bytes(victim.value);
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

CacheStats SolveCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return CacheStats{hits_, misses_, inserts_, evictions_, lru_.size(), bytes_};
}

std::string SolveCache::to_text() const {
  // Snapshot entries, then sort by key for a deterministic rendering.
  std::vector<Entry> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.assign(lru_.begin(), lru_.end());
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });

  std::string out = std::string(kFormatHeader) + "\n";
  char hex[17];
  for (const Entry& e : entries) {
    const SolveOutcome& v = e.value;
    out += "entry " + e.key + "\n";
    out += "status ";
    out += solve_status_name(v.status);
    out += "\nbits " + std::to_string(v.encoding.bits) + "\n";
    append_list_line(out, "codes", v.encoding.codes);
    out += "minimal ";
    out += v.minimal ? '1' : '0';
    out += "\ntruncation ";
    out += truncation_name(v.truncation);
    out += '\n';
    append_list_line(out, "uncovered", v.uncovered);
    out += "counters " + std::to_string(v.num_initial) + ' ' +
           std::to_string(v.num_raised) + ' ' + std::to_string(v.num_primes) +
           ' ' + std::to_string(v.num_valid_primes) + ' ' +
           std::to_string(v.num_candidates) + ' ' +
           std::to_string(v.num_aux_columns) + ' ' +
           std::to_string(v.nodes_explored) + '\n';
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(v.stats_fingerprint));
    out += std::string("fingerprint ") + hex + "\nend\n";
  }
  return out;
}

bool SolveCache::from_text(const std::string& text, std::string* error) {
  auto fail = [&](int line, const std::string& msg) {
    if (error)
      *error = "line " + std::to_string(line) + ": " + msg;
    return false;
  };

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  if (!std::getline(in, line)) return fail(1, "empty cache file");
  ++line_no;
  if (line != kFormatHeader)
    return fail(1, "expected header '" + std::string(kFormatHeader) + "'");

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string word, key;
    ls >> word;
    if (word != "entry" || !(ls >> key))
      return fail(line_no, "expected 'entry <key>'");

    SolveOutcome v;
    int codes_line = 0;
    bool saw_end = false;
    while (std::getline(in, line)) {
      ++line_no;
      std::istringstream fs(line);
      std::string field;
      fs >> field;
      if (field == "end") {
        saw_end = true;
        break;
      } else if (field == "status") {
        std::string tok;
        if (!(fs >> tok) || !solve_status_from_name(tok.c_str(), &v.status))
          return fail(line_no, "bad status");
      } else if (field == "bits") {
        std::uint64_t bits = 0;
        if (!parse_one(fs, 64, &bits)) return fail(line_no, "bad bits");
        v.encoding.bits = static_cast<int>(bits);
      } else if (field == "codes") {
        if (!parse_list(fs, &v.encoding.codes))
          return fail(line_no, "bad codes");
        codes_line = line_no;
      } else if (field == "minimal") {
        std::uint64_t b = 0;
        if (!parse_one(fs, 1, &b)) return fail(line_no, "bad minimal");
        v.minimal = b == 1;
      } else if (field == "truncation") {
        std::string tok;
        if (!(fs >> tok) || !truncation_from_name(tok.c_str(), &v.truncation))
          return fail(line_no, "bad truncation");
      } else if (field == "uncovered") {
        if (!parse_list(fs, &v.uncovered))
          return fail(line_no, "bad uncovered");
      } else if (field == "counters") {
        std::vector<std::uint64_t> c;
        if (!parse_list(fs, &c) || c.size() != 7)
          return fail(line_no, "bad counters");
        v.num_initial = c[0];
        v.num_raised = c[1];
        v.num_primes = c[2];
        v.num_valid_primes = c[3];
        v.num_candidates = c[4];
        v.num_aux_columns = c[5];
        v.nodes_explored = c[6];
      } else if (field == "fingerprint") {
        // Exactly 16 hex digits, as to_text() writes them.
        std::string hex, extra;
        if (!(fs >> hex) || fs >> extra || hex.size() != 16 ||
            std::from_chars(hex.data(), hex.data() + 16, v.stats_fingerprint,
                            16)
                    .ptr != hex.data() + 16)
          return fail(line_no, "bad fingerprint");
      } else {
        return fail(line_no, "unknown field '" + field + "'");
      }
    }
    if (!saw_end) return fail(line_no, "entry without 'end'");
    if (v.encoding.bits < 64)
      for (const std::uint64_t code : v.encoding.codes)
        if (code >> v.encoding.bits)
          return fail(codes_line, "code " + std::to_string(code) +
                                      " does not fit in " +
                                      std::to_string(v.encoding.bits) +
                                      " bits");
    insert(key, std::move(v));
  }
  return true;
}

bool SolveCache::save(const std::string& path, std::string* error) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out << to_text();
  out.flush();
  if (!out) {
    if (error) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

bool SolveCache::load(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error) *error = "cannot open '" + path + "' for reading";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string parse_error;
  if (!from_text(buf.str(), &parse_error)) {
    if (error) *error = path + ": " + parse_error;
    return false;
  }
  return true;
}

}  // namespace encodesat
