#include "obs/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace lsds::obs {

Json& Json::set(const std::string& key, Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(v));
  return *this;
}

Json& Json::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(key, Json{});
  return object_.back().second;
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::push(Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  array_.push_back(std::move(v));
  return *this;
}

std::string Json::quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string Json::number(double d) {
  if (std::isnan(d)) return "NaN";
  if (std::isinf(d)) return d > 0 ? "Infinity" : "-Infinity";
  // "-0" would parse back as the integer 0; the fraction keeps it a double.
  if (d == 0 && std::signbit(d)) return "-0.0";
  // Shortest representation that round-trips: try increasing precision.
  char buf[32];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  // Keep it recognizably numeric for strict parsers ("1e+20" is fine, a
  // bare "inf" is not — handled above).
  return buf;
}

void Json::write(std::string& out, int indent, int depth) const {
  const std::string pad = indent > 0 ? std::string(static_cast<std::size_t>(indent) *
                                                       static_cast<std::size_t>(depth + 1),
                                                   ' ')
                                     : std::string{};
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
                               ' ')
                 : std::string{};
  const char* nl = indent > 0 ? "\n" : "";
  const char* kv_sep = indent > 0 ? ": " : ":";
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(int_));
      out += buf;
      break;
    }
    case Kind::kDouble: out += number(double_); break;
    case Kind::kString: out += quote(str_); break;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += "[";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        out += (i ? "," : "");
        out += nl;
        out += pad;
        array_[i].write(out, indent, depth + 1);
      }
      out += nl;
      out += close_pad;
      out += "]";
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += "{";
      for (std::size_t i = 0; i < object_.size(); ++i) {
        out += (i ? "," : "");
        out += nl;
        out += pad;
        out += quote(object_[i].first);
        out += kv_sep;
        object_[i].second.write(out, indent, depth + 1);
      }
      out += nl;
      out += close_pad;
      out += "}";
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

void Json::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("json: cannot open " + path + " for writing");
  const std::string text = dump() + "\n";
  const bool written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !written) throw std::runtime_error("json: cannot write " + path);
}

namespace {

// Recursive-descent parser over the writer's dialect (strict JSON plus the
// NaN / Infinity literals the writer emits for non-finite doubles).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Bounded recursion: a hostile partial throws instead of
        // overflowing the stack.
        if (++depth_ > Json::kMaxDepth) {
          fail("nesting deeper than " + std::to_string(Json::kMaxDepth));
        }
        Json v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Json(parse_string());
      case 't':
        if (literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (literal("null")) return Json();
        fail("bad literal");
      case 'N':
        if (literal("NaN")) return Json(std::nan(""));
        fail("bad literal");
      case 'I':
        if (literal("Infinity")) return Json(std::numeric_limits<double>::infinity());
        fail("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  // Appends the UTF-8 encoding of `cp`.
  static void encode_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape digit");
    }
    return cp;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF && text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          }
          encode_utf8(out, cp);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
      if (literal("Infinity")) return Json(-std::numeric_limits<double>::infinity());
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    if (integral) {
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (end == token.c_str() + token.size() && errno != ERANGE) {
        return Json(static_cast<std::int64_t>(v));
      }
      errno = 0;  // out of int64 range: fall through to double
    }
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number '" + token + "'");
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace lsds::obs
