// Fixture: emitters that go through the shared JSON helpers lint
// clean, as do other printf formats and declarations.
#include <cstdio>
#include <string>

namespace json
{
std::string num(double v);
std::string escape(const std::string &s);
} // namespace json

std::string
point(const std::string &name, double power)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6e", power);
    return "{\"name\":\"" + json::escape(name) + "\",\"power_w\":" +
           json::num(power) + ",\"label\":\"" + buf + "\"}";
}
