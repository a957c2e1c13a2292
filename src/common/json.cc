#include "common/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mouse::json
{

std::string
num(double v)
{
    if (!std::isfinite(v)) {
        return v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\t') {
            out += "\\t";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

const Value *
Value::find(const std::string &key) const
{
    for (const auto &[name, value] : members) {
        if (name == key) {
            return &value;
        }
    }
    return nullptr;
}

void
fail(Error *err, const Value &at, std::string message)
{
    if (err != nullptr) {
        *err = {at.line, at.col, std::move(message)};
    }
}

namespace
{

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** The four hex digits at @p s[at] into @p out. */
bool
hex4(const std::string &s, std::size_t at, unsigned *out)
{
    if (at + 4 > s.size()) {
        return false;
    }
    for (std::size_t i = at; i < at + 4; ++i) {
        if (std::isxdigit(static_cast<unsigned char>(s[i])) == 0) {
            return false;
        }
    }
    *out = static_cast<unsigned>(std::stoul(s.substr(at, 4), nullptr, 16));
    return true;
}

void
appendUtf8(unsigned cp, std::string &out)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
        return;
    }
    static const unsigned kLead[] = {0, 0xC0, 0xE0, 0xF0};
    const int tail = cp < 0x800 ? 1 : (cp < 0x10000 ? 2 : 3);
    out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i) {
        out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
    }
}

/** Recursive-descent reader over the document text, tracking the
 *  line and column of the cursor. */
class Parser
{
  public:
    Parser(const std::string &text, Error *err) : s_(text), err_(err)
    {
    }

    std::optional<Value>
    document()
    {
        Value v;
        skipWs();
        if (!value(v, 0)) {
            return std::nullopt;
        }
        skipWs();
        if (pos_ < s_.size()) {
            fail("trailing content after the document");
            return std::nullopt;
        }
        return v;
    }

  private:
    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    bool
    fail(const std::string &message)
    {
        if (err_ != nullptr) {
            *err_ = {line_, pos_ - lineStart_ + 1, message};
        }
        return false;
    }

    void
    skipWs()
    {
        for (; pos_ < s_.size(); ++pos_) {
            const char c = s_[pos_];
            if (c == '\n') {
                ++line_;
                lineStart_ = pos_ + 1;
            } else if (c != ' ' && c != '\t' && c != '\r') {
                break;
            }
        }
    }

    bool
    value(Value &v, int depth)
    {
        v.line = line_;
        v.col = pos_ - lineStart_ + 1;
        switch (peek()) {
          case '{':
          case '[':
            if (depth >= kMaxDepth) {
                return fail("nesting deeper than " +
                            std::to_string(kMaxDepth) + " levels");
            }
            return container(v, depth + 1);
          case '"':
            v.type = Value::Type::kString;
            return string(v.text);
          case 't':
            v.boolean = true;
            return literal("true", v, Value::Type::kBool);
          case 'f':
            return literal("false", v, Value::Type::kBool);
          case 'n':
            return literal("null", v, Value::Type::kNull);
          default:
            return number(v);
        }
    }

    bool
    literal(const char *word, Value &v, Value::Type type)
    {
        const std::string w(word);
        if (s_.compare(pos_, w.size(), w) != 0) {
            return fail("invalid literal");
        }
        pos_ += w.size();
        v.type = type;
        return true;
    }

    /** An object or array at pos_: comma-separated members up to
     *  the matching close bracket. */
    bool
    container(Value &v, int depth)
    {
        const bool isObject = peek() == '{';
        const char close = isObject ? '}' : ']';
        v.type = isObject ? Value::Type::kObject : Value::Type::kArray;
        ++pos_;
        skipWs();
        if (peek() == close) {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string name;
            Value child;
            if ((isObject && !key(v, name)) || !value(child, depth)) {
                return false;
            }
            if (isObject) {
                v.members.emplace_back(std::move(name), std::move(child));
            } else {
                v.items.push_back(std::move(child));
            }
            skipWs();
            if (peek() == ',') {
                ++pos_;
            } else if (peek() == close) {
                ++pos_;
                return true;
            } else {
                return fail(std::string("expected ',' or '") + close +
                            "'");
            }
        }
    }

    /** An object key of @p obj and its ':', rejecting duplicates. */
    bool
    key(const Value &obj, std::string &out)
    {
        const std::size_t at = pos_;
        if (peek() != '"') {
            return fail("expected a string key");
        }
        if (!string(out)) {
            return false;
        }
        if (obj.find(out) != nullptr) {
            pos_ = at;
            return fail("duplicate key \"" + escape(out) + "\"");
        }
        skipWs();
        if (peek() != ':') {
            return fail("expected ':' after an object key");
        }
        ++pos_;
        skipWs();
        return true;
    }

    bool
    string(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                return fail("control character in a string");
            }
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (!escapeSeq(out)) {
                return false;
            }
        }
        return fail("unterminated string");
    }

    /** One backslash escape at pos_, decoded into @p out. */
    bool
    escapeSeq(std::string &out)
    {
        const char e = pos_ + 1 < s_.size() ? s_[pos_ + 1] : '\0';
        static const std::string kFrom = "\"\\/bfnrt";
        static const std::string kTo = "\"\\/\b\f\n\r\t";
        if (const std::size_t i = kFrom.find(e);
            e != '\0' && i != std::string::npos) {
            out += kTo[i];
            pos_ += 2;
            return true;
        }
        unsigned cp = 0;
        if (e != 'u' || !hex4(s_, pos_ + 2, &cp)) {
            return fail("invalid string escape");
        }
        pos_ += 6;
        // A high surrogate directly followed by a low one is one
        // code point; a lone surrogate is kept as its own value.
        unsigned lo = 0;
        if (cp >= 0xD800 && cp < 0xDC00 &&
            s_.compare(pos_, 2, "\\u") == 0 && hex4(s_, pos_ + 2, &lo) &&
            lo >= 0xDC00 && lo < 0xE000) {
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            pos_ += 6;
        }
        appendUtf8(cp, out);
        return true;
    }

    bool
    digits()
    {
        if (!isDigit(peek())) {
            return false;
        }
        while (isDigit(peek())) {
            ++pos_;
        }
        return true;
    }

    bool
    number(Value &v)
    {
        const std::size_t start = pos_;
        const bool negative = peek() == '-';
        if (negative) {
            ++pos_;
        }
        if (peek() == '0') {
            ++pos_;
        } else if (!digits()) {
            pos_ = start;
            return fail("expected a value");
        }
        if (peek() == '.') {
            ++pos_;
            if (!digits()) {
                return fail("expected a digit after '.'");
            }
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') {
                ++pos_;
            }
            if (!digits()) {
                return fail("expected an exponent digit");
            }
        }
        const std::string token = s_.substr(start, pos_ - start);
        v.type = Value::Type::kNumber;
        v.number = std::strtod(token.c_str(), nullptr);
        if (!std::isfinite(v.number)) {
            pos_ = start;
            return fail("number out of range");
        }
        if (token.find_first_of(".eE") == std::string::npos) {
            errno = 0;
            v.magnitude =
                std::strtoull(token.c_str() + (negative ? 1 : 0),
                              nullptr, 10);
            v.integral = errno != ERANGE;
        }
        return true;
    }

    const std::string &s_;
    Error *err_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
    std::size_t lineStart_ = 0;
};

} // namespace

std::optional<Value>
parse(const std::string &text, Error *err)
{
    return Parser(text, err).document();
}

} // namespace mouse::json
