// Fixture: the one home of the JSON number formatter and string
// escaper; json-helpers leaves this path alone.
#include <cstdio>
#include <string>

namespace json
{

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
escape(const std::string &s)
{
    return s;
}

} // namespace json
