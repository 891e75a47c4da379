#include "service/json.h"

#include <cctype>
#include <cstdlib>

namespace encodesat {

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty())
      error = msg + " at offset " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r'))
      ++pos;
  }

  bool literal(const char* word, std::size_t len) {
    if (text.compare(pos, len, word) != 0) return fail("invalid literal");
    pos += len;
    return true;
  }

  // Appends the UTF-8 encoding of `cp` to out.
  static void append_utf8(std::uint32_t cp, std::string& out) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool hex4(std::uint32_t* out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + i];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return fail("bad hex digit in \\u escape");
    }
    pos += 4;
    *out = v;
    return true;
  }

  bool parse_string(std::string* out) {
    if (text[pos] != '"') return fail("expected string");
    ++pos;
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        *out += c;
        ++pos;
        continue;
      }
      if (++pos >= text.size()) return fail("truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a \uDC00-\uDFFF low half must follow.
            if (pos + 1 >= text.size() || text[pos] != '\\' ||
                text[pos + 1] != 'u')
              return fail("unpaired high surrogate");
            pos += 2;
            std::uint32_t lo = 0;
            if (!hex4(&lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF)
              return fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired low surrogate");
          }
          append_utf8(cp, *out);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    auto digits = [&] {
      const std::size_t d = pos;
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos])))
        ++pos;
      return pos > d;
    };
    if (!digits()) return fail("expected digits");
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      if (!digits()) return fail("expected fraction digits");
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (!digits()) return fail("expected exponent digits");
    }
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(text.c_str() + start, nullptr);
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    switch (c) {
      case '{': {
        ++pos;
        out->type = JsonValue::Type::kObject;
        skip_ws();
        if (pos < text.size() && text[pos] == '}') {
          ++pos;
          return true;
        }
        for (;;) {
          skip_ws();
          std::string key;
          if (pos >= text.size() || !parse_string(&key)) return false;
          skip_ws();
          if (pos >= text.size() || text[pos] != ':')
            return fail("expected ':'");
          ++pos;
          JsonValue v;
          if (!parse_value(&v, depth + 1)) return false;
          out->object.emplace_back(std::move(key), std::move(v));
          skip_ws();
          if (pos >= text.size()) return fail("unterminated object");
          if (text[pos] == ',') {
            ++pos;
            continue;
          }
          if (text[pos] == '}') {
            ++pos;
            return true;
          }
          return fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++pos;
        out->type = JsonValue::Type::kArray;
        skip_ws();
        if (pos < text.size() && text[pos] == ']') {
          ++pos;
          return true;
        }
        for (;;) {
          JsonValue v;
          if (!parse_value(&v, depth + 1)) return false;
          out->array.push_back(std::move(v));
          skip_ws();
          if (pos >= text.size()) return fail("unterminated array");
          if (text[pos] == ',') {
            ++pos;
            continue;
          }
          if (text[pos] == ']') {
            ++pos;
            return true;
          }
          return fail("expected ',' or ']'");
        }
      }
      case '"':
        out->type = JsonValue::Type::kString;
        return parse_string(&out->str);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return literal("true", 4);
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return literal("false", 5);
      case 'n':
        out->type = JsonValue::Type::kNull;
        return literal("null", 4);
      default:
        return parse_number(out);
    }
  }
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : object)
    if (k == key) found = &v;
  return found;
}

bool json_parse(const std::string& text, JsonValue* out, std::string* error) {
  Parser p{text, /*pos=*/0, /*error=*/{}};
  JsonValue v;
  if (!p.parse_value(&v, 0)) {
    if (error) *error = p.error;
    return false;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error) *error = "trailing garbage at offset " + std::to_string(p.pos);
    return false;
  }
  *out = std::move(v);
  return true;
}

}  // namespace encodesat
