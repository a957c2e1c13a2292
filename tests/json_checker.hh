/**
 * @file
 * Test-side JSON helpers shared by the obs, common and fuzz suites.
 *
 * JsonChecker is an independent strict RFC 8259 recognizer: the
 * oracle json::parse() is checked against (same grammar, finite
 * numbers only, no duplicate keys, the same json::kMaxDepth nesting
 * limit).  It shares no code with src/common/json.cc on purpose.
 *
 * writeJson() re-serializes a parsed value with its object members
 * in a caller-chosen order, so tests can feed readers documents
 * whose keys are permuted.
 */

#ifndef MOUSE_TESTS_JSON_CHECKER_HH
#define MOUSE_TESTS_JSON_CHECKER_HH

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/json.hh"

namespace mouse
{

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value(0)) {
            return false;
        }
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value(int depth)
    {
        switch (peek()) {
          case '{':
            return depth < json::kMaxDepth && object(depth + 1);
          case '[':
            return depth < json::kMaxDepth && array(depth + 1);
          case '"': {
            std::string ignored;
            return string(ignored);
          }
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object(int depth)
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        std::set<std::string> keys;
        while (true) {
            skipWs();
            std::string key;
            if (peek() != '"' || !string(key) ||
                !keys.insert(key).second) {
                return false;
            }
            skipWs();
            if (peek() != ':') {
                return false;
            }
            ++pos_;
            skipWs();
            if (!value(depth)) {
                return false;
            }
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array(int depth)
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value(depth)) {
                return false;
            }
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    /** Four hex digits at pos_ as a UTF-16 code unit, or -1. */
    long
    codeUnit()
    {
        if (pos_ + 4 > s_.size()) {
            return -1;
        }
        const std::string hex = s_.substr(pos_, 4);
        if (hex.find_first_not_of("0123456789abcdefABCDEF") !=
            std::string::npos) {
            return -1;
        }
        pos_ += 4;
        return std::strtol(hex.c_str(), nullptr, 16);
    }

    static void
    utf8(unsigned long cp, std::string &out)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
            return;
        }
        const int n = cp < 0x800 ? 2 : (cp < 0x10000 ? 3 : 4);
        const unsigned lead[] = {0, 0, 0xC0, 0xE0, 0xF0};
        for (int i = n - 1; i >= 0; --i) {
            const unsigned long bits = (cp >> (6 * i)) & 0x3F;
            out += static_cast<char>(
                i == n - 1 ? (lead[n] | (cp >> (6 * i))) : (0x80 | bits));
        }
    }

    /** Recognize a string, decoding it into @p out (for the
     *  duplicate-key check). */
    bool
    string(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < s_.size()) {
            const unsigned char c = s_[pos_++];
            if (c == '"') {
                return true;
            }
            if (c < 0x20) {
                return false;
            }
            if (c != '\\') {
                out += static_cast<char>(c);
                continue;
            }
            if (pos_ >= s_.size()) {
                return false;
            }
            static const char kEscapes[] = "\"\\/bfnrt";
            static const char kDecoded[] = "\"\\/\b\f\n\r\t";
            const char e = s_[pos_++];
            const char *simple = std::strchr(kEscapes, e);
            if (e != '\0' && simple != nullptr) {
                out += kDecoded[simple - kEscapes];
                continue;
            }
            if (e != 'u') {
                return false;
            }
            long unit = codeUnit();
            if (unit < 0) {
                return false;
            }
            if (unit >= 0xD800 && unit <= 0xDBFF &&
                s_.compare(pos_, 2, "\\u") == 0) {
                const std::size_t save = pos_;
                pos_ += 2;
                const long low = codeUnit();
                if (low >= 0xDC00 && low <= 0xDFFF) {
                    unit = 0x10000 + ((unit - 0xD800) << 10) +
                           (low - 0xDC00);
                } else {
                    pos_ = save;
                }
            }
            utf8(static_cast<unsigned long>(unit), out);
        }
        return false;
    }

    bool
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-') {
            ++pos_;
        }
        if (peek() == '0') {
            ++pos_;
        } else if (peek() < '1' || peek() > '9' || !digits()) {
            return false;
        }
        if (peek() == '.') {
            ++pos_;
            if (!digits()) {
                return false;
            }
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') {
                ++pos_;
            }
            if (!digits()) {
                return false;
            }
        }
        const std::string token = s_.substr(start, pos_ - start);
        return std::isfinite(std::strtod(token.c_str(), nullptr));
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0) {
            return false;
        }
        pos_ += n;
        return true;
    }

    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::strchr(" \t\n\r", s_[pos_]) != nullptr &&
               s_[pos_] != '\0') {
            ++pos_;
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

inline bool
validJson(const std::string &text)
{
    return JsonChecker(text).valid();
}

/** Member order of one object: permute @p order (initially
 *  0..n-1) in place. */
using KeyOrder = std::function<void(std::vector<std::size_t> &order)>;

/** @p v re-serialized with every object's members in the order
 *  @p reorder picks (integers stay exact, other numbers are
 *  written with json::num, which reads back bit-exactly). */
inline std::string
writeJson(const json::Value &v, const KeyOrder &reorder)
{
    using json::Value;
    switch (v.type) {
      case Value::Type::kNull:
        return "null";
      case Value::Type::kBool:
        return v.boolean ? "true" : "false";
      case Value::Type::kNumber:
        if (v.integral) {
            return (std::signbit(v.number) ? "-" : "") +
                   std::to_string(v.magnitude);
        }
        return json::num(v.number);
      case Value::Type::kString:
        return "\"" + json::escape(v.text) + "\"";
      case Value::Type::kArray: {
        std::string j = "[";
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            j += (i > 0 ? "," : "") + writeJson(v.items[i], reorder);
        }
        return j + "]";
      }
      case Value::Type::kObject: {
        std::vector<std::size_t> order(v.members.size());
        std::iota(order.begin(), order.end(), 0);
        reorder(order);
        std::string j = "{";
        for (std::size_t i = 0; i < order.size(); ++i) {
            const auto &[key, member] = v.members[order[i]];
            j += (i > 0 ? ",\"" : "\"") + json::escape(key) +
                 "\":" + writeJson(member, reorder);
        }
        return j + "}";
      }
    }
    return "";
}

/** @p text with the members of every object in reverse order. */
inline std::string
reversedKeys(const std::string &text)
{
    const auto v = json::parse(text);
    return v ? writeJson(*v,
                         [](std::vector<std::size_t> &order) {
                             std::reverse(order.begin(), order.end());
                         })
             : "";
}

} // namespace mouse

#endif // MOUSE_TESTS_JSON_CHECKER_HH
