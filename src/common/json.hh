/**
 * @file
 * The one JSON writer and reader of the tree (docs/ARCHITECTURE.md).
 *
 * Writer: num() and escape() are the only number and string
 * formatters emitters use, so every document renders a double the
 * same way (%.17g, which strtod() reads back bit-exactly) and quotes
 * a string the same way.  The mouse_lint rule json-helpers keeps
 * private copies from reappearing.
 *
 * Reader: parse() builds a small DOM from strict RFC 8259 text —
 * finite decimal numbers only, full string escapes, no duplicate
 * keys, no trailing content, at most kMaxDepth nested containers.
 * Every value remembers the line and column where it starts, so the
 * format readers built on it (power traces, outage schedules, replay
 * artifacts, metrics snapshots) look keys up by name and report
 * semantic errors at the offending value.
 */

#ifndef MOUSE_COMMON_JSON_HH
#define MOUSE_COMMON_JSON_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace mouse::json
{

/** %.17g rendering; JSON has no NaN/Inf, so non-finite values
 *  become +-1e308 (NaN becomes 0). */
std::string num(double v);
std::string num(std::uint64_t v);

/** String contents with '"', '\\', '\n', '\t' escaped and every
 *  other control character written as \u00XX. */
std::string escape(const std::string &s);

/** Where and why a read failed (1-based line and byte column). */
struct Error
{
    std::size_t line = 1;
    std::size_t col = 1;
    std::string message;
};

/** Deepest array/object nesting parse() accepts; deeper input is
 *  rejected instead of recursing further. */
inline constexpr int kMaxDepth = 64;

/** One parsed JSON value. */
struct Value
{
    enum class Type
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Type type = Type::kNull;
    bool boolean = false;
    /** The number was written as a plain integer (no fraction or
     *  exponent) whose magnitude fits in 64 bits, held exactly in
     *  magnitude; its sign is the sign of number. */
    bool integral = false;
    double number = 0.0;
    std::uint64_t magnitude = 0;
    /** String contents. */
    std::string text;
    std::vector<Value> items;
    /** Object members in document order. */
    std::vector<std::pair<std::string, Value>> members;
    std::size_t line = 1;
    std::size_t col = 1;

    bool is(Type t) const { return type == t; }

    /** The member named @p key; null when absent or not an object. */
    const Value *find(const std::string &key) const;
};

/** Parse one document; nullopt (and @p err filled) on bad input. */
std::optional<Value> parse(const std::string &text,
                           Error *err = nullptr);

/** Fill @p err (when given) with @p message anchored at @p at. */
void fail(Error *err, const Value &at, std::string message);

/** @p v as an exact integer of type T: nullopt unless @p v is a
 *  plain integer token (no fraction or exponent) within T's range. */
template <typename T>
std::optional<T>
toInt(const Value &v)
{
    static_assert(std::is_integral_v<T>);
    if (!v.is(Value::Type::kNumber) || !v.integral) {
        return std::nullopt;
    }
    const std::uint64_t mag = v.magnitude;
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    if (!std::signbit(v.number)) {
        return mag <= kMax ? std::optional<T>(static_cast<T>(mag))
                           : std::nullopt;
    }
    if (mag == 0) {
        return T{0};
    }
    if constexpr (std::is_signed_v<T>) {
        if (mag - 1 <= kMax) {
            return static_cast<T>(-static_cast<T>(mag - 1) - 1);
        }
    }
    return std::nullopt;
}

} // namespace mouse::json

#endif // MOUSE_COMMON_JSON_HH
