// Fixture: private JSON helpers outside src/common/json.cc must be
// flagged by json-helpers.  Mentioning "%.17g" or jsonEscape in a
// comment is fine.
#include <cstdio>
#include <string>

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);   // finding
    return buf;
}

std::string
jsonEscape(const std::string &s)                  // finding
{
    return s;
}

namespace local
{
std::string
escape(const std::string &s)                      // finding
{
    return s;
}
} // namespace local

std::string
render(const std::string &name)
{
    auto escape = [](const std::string &s) { return s; };  // finding
    return "\"" + escape(name) + "\"";            // ok (a call)
}

void
printInfo(double hz)
{
    std::printf("{\"frequency_hz\":%.17g}\n", hz);  // finding
}
