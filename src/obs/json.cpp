#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace apt::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

void JsonWriter::Separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key; the key already separated
  }
  if (!first_.back()) *os_ << ",";
  first_.back() = false;
}

void JsonWriter::BeginObject() {
  Separate();
  *os_ << "{";
  first_.push_back(true);
}

void JsonWriter::EndObject() {
  first_.pop_back();
  *os_ << "}";
}

void JsonWriter::BeginArray() {
  Separate();
  *os_ << "[";
  first_.push_back(true);
}

void JsonWriter::EndArray() {
  first_.pop_back();
  *os_ << "]";
}

void JsonWriter::Key(std::string_view k) {
  Separate();
  *os_ << "\"" << JsonEscape(k) << "\":";
  pending_key_ = true;
}

void JsonWriter::Value(std::string_view v) {
  Separate();
  *os_ << "\"" << JsonEscape(v) << "\"";
}

void JsonWriter::Value(double v) {
  Separate();
  if (!std::isfinite(v)) {
    *os_ << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *os_ << buf;
}

void JsonWriter::Value(std::int64_t v) {
  Separate();
  *os_ << v;
}

void JsonWriter::Value(bool v) {
  Separate();
  *os_ << (v ? "true" : "false");
}

void JsonWriter::RawValue(std::string_view json) {
  Separate();
  *os_ << json;
}

// --- reader ----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    if (!ParseValue(out)) return Fail(error, why_);
    SkipWs();
    if (pos_ != s_.size()) return Fail(error, "trailing garbage");
    return true;
  }

 private:
  bool Fail(std::string* error, const char* why = "malformed JSON") {
    if (error != nullptr) {
      std::ostringstream os;
      os << why << " at byte " << pos_;
      *error = os.str();
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool ConsumeLiteral(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// Appends the UTF-8 encoding of `code` (the \uXXXX escape payload).
  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      const char c = s_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          AppendUtf8(out, code);
          break;
        }
        default:
          return false;
      }
    }
    return Consume('"');
  }

  /// Length of the number at pos_ under JSON's grammar
  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, or 0 if there is none
  /// (strtod alone would also take inf, nan, hex and a leading '+').
  std::size_t NumberLength() const {
    std::size_t i = pos_;
    const auto at = [&](std::string_view set) {
      return i < s_.size() && set.find(s_[i]) != std::string_view::npos;
    };
    const auto digits = [&] {
      const std::size_t from = i;
      while (at("0123456789")) ++i;
      return i > from;
    };
    if (at("-")) ++i;
    if (at("0")) {
      ++i;
    } else if (!digits()) {
      return 0;
    }
    if (at(".")) {
      ++i;
      if (!digits()) return 0;
    }
    if (at("eE")) {
      ++i;
      if (at("+-")) ++i;
      if (!digits()) return 0;
    }
    return i - pos_;
  }

  /// Every value nests one level deeper than its container; the depth is
  /// capped before the recursion can exhaust the stack.
  bool ParseValue(JsonValue* out) {
    if (depth_ == kMaxJsonDepth) {
      why_ = "nesting too deep";
      return false;
    }
    ++depth_;
    const bool ok = ParseNested(out);
    --depth_;
    return ok;
  }

  bool ParseNested(JsonValue* out) {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipWs();
      if (Consume('}')) return true;
      while (true) {
        std::string key;
        SkipWs();
        if (!ParseString(&key)) return false;
        if (!Consume(':')) return false;
        JsonValue v;
        if (!ParseValue(&v)) return false;
        out->obj.insert_or_assign(std::move(key), std::move(v));
        if (Consume(',')) continue;
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipWs();
      if (Consume(']')) return true;
      while (true) {
        JsonValue v;
        if (!ParseValue(&v)) return false;
        out->arr.push_back(std::move(v));
        if (Consume(',')) continue;
        return Consume(']');
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::kBool;
      out->b = true;
      return ConsumeLiteral("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::kBool;
      out->b = false;
      return ConsumeLiteral("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::kNull;
      return ConsumeLiteral("null");
    }
    const std::size_t n = NumberLength();
    if (n == 0) return false;
    // strtod needs NUL termination the view cannot guarantee.
    out->num = std::strtod(std::string(s_.substr(pos_, n)).c_str(), nullptr);
    if (!std::isfinite(out->num)) {
      why_ = "number out of range";
      return false;
    }
    pos_ += n;
    out->kind = JsonValue::kNumber;
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  const char* why_ = "malformed JSON";
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  return Parser(text).Parse(out, error);
}

bool ParseJsonFile(const std::string& path, JsonValue* out, std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::stringstream buf;
  buf << is.rdbuf();
  return ParseJson(buf.str(), out, error);
}

}  // namespace apt::obs
