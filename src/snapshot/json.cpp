#include "snapshot/json.hpp"

#include <cctype>
#include <cstdio>

namespace hours::snapshot {

Json::Json(Json&& other) noexcept = default;
Json& Json::operator=(Json&& other) noexcept = default;

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto& obj = fields();
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

Json& Json::operator[](std::string_view key) {
  auto& obj = std::get<Object>(value_);
  const auto it = obj.find(key);
  if (it != obj.end()) return it->second;
  return obj.emplace(std::string(key), Json{}).first->second;
}

namespace {

void write_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void pad(std::string& out, int indent) { out.append(static_cast<std::size_t>(indent), ' '); }

}  // namespace

void Json::write(std::string& out, int indent) const {
  if (is_u64()) {
    out += std::to_string(as_u64());
    return;
  }
  if (is_string()) {
    write_string(out, as_string());
    return;
  }
  if (is_array()) {
    const auto& arr = items();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    // Arrays of scalars stay on one line (event args, bins, id lists);
    // arrays holding any composite break one element per line.
    bool flat = true;
    for (const auto& v : arr) {
      if (v.is_array() || v.is_object()) flat = false;
    }
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (flat) {
        if (i != 0) out += ", ";
      } else {
        out += i == 0 ? "\n" : ",\n";
        pad(out, indent + 2);
      }
      arr[i].write(out, indent + 2);
    }
    if (!flat) {
      out += '\n';
      pad(out, indent);
    }
    out += ']';
    return;
  }
  const auto& obj = fields();
  if (obj.empty()) {
    out += "{}";
    return;
  }
  out += '{';
  bool first = true;
  for (const auto& [key, value] : obj) {
    out += first ? "\n" : ",\n";
    first = false;
    pad(out, indent + 2);
    write_string(out, key);
    out += ": ";
    value.write(out, indent + 2);
  }
  out += '\n';
  pad(out, indent);
  out += '}';
}

std::string Json::dump() const {
  std::string out;
  write(out, 0);
  out += '\n';
  return out;
}

// -- parser ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(Json& out, std::string* error) {
    if (!value(out)) {
      fill(error);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error_ = "trailing content";
      fill(error);
      return false;
    }
    return true;
  }

 private:
  void fill(std::string* error) const {
    if (error != nullptr) *error = error_ + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool expect(char c) {
    if (at_end() || text_[pos_] != c) {
      error_ = std::string("expected '") + c + "'";
      return false;
    }
    ++pos_;
    return true;
  }

  bool value(Json& out) {
    skip_ws();
    if (at_end()) {
      error_ = "unexpected end of input";
      return false;
    }
    const char c = peek();
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      std::string s;
      if (!string(s)) return false;
      out = Json(std::move(s));
      return true;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) return number(out);
    error_ = "unsupported value (snapshot JSON holds only u64 integers, "
             "strings, arrays, and objects)";
    return false;
  }

  bool number(Json& out) {
    std::uint64_t v = 0;
    const std::size_t start = pos_;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())) != 0) {
      const std::uint64_t digit = static_cast<std::uint64_t>(peek() - '0');
      if (v > (UINT64_MAX - digit) / 10) {
        error_ = "integer overflows u64";
        return false;
      }
      v = v * 10 + digit;
      ++pos_;
    }
    if (pos_ == start) {
      error_ = "expected digits";
      return false;
    }
    if (!at_end() && (peek() == '.' || peek() == 'e' || peek() == 'E')) {
      error_ = "fractional numbers are not part of the snapshot format";
      return false;
    }
    out = Json(v);
    return true;
  }

  bool string(std::string& out) {
    if (!expect('"')) return false;
    while (true) {
      if (at_end()) {
        error_ = "unterminated string";
        return false;
      }
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) {
        error_ = "unterminated escape";
        return false;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            error_ = "truncated \\u escape";
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              error_ = "invalid \\u escape";
              return false;
            }
          }
          if (code > 0xFF) {
            // The writer only escapes control characters; anything larger
            // never appears in a well-formed snapshot.
            error_ = "\\u escape beyond latin-1 unsupported";
            return false;
          }
          out += static_cast<char>(code);
          break;
        }
        default:
          error_ = "unknown escape";
          return false;
      }
    }
  }

  bool array(Json& out) {
    if (!expect('[')) return false;
    Json::Array arr;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      out = Json(std::move(arr));
      return true;
    }
    while (true) {
      Json element;
      if (!value(element)) return false;
      arr.push_back(std::move(element));
      skip_ws();
      if (!at_end() && peek() == ',') {
        ++pos_;
        continue;
      }
      if (!expect(']')) return false;
      out = Json(std::move(arr));
      return true;
    }
  }

  bool object(Json& out) {
    if (!expect('{')) return false;
    Json::Object obj;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      out = Json(std::move(obj));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      Json element;
      if (!value(element)) return false;
      if (!obj.emplace(std::move(key), std::move(element)).second) {
        error_ = "duplicate object key";
        return false;
      }
      skip_ws();
      if (!at_end() && peek() == ',') {
        ++pos_;
        continue;
      }
      if (!expect('}')) return false;
      out = Json(std::move(obj));
      return true;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool parse_json(std::string_view text, Json& out, std::string* error) {
  return Parser(text).parse(out, error);
}

}  // namespace hours::snapshot
