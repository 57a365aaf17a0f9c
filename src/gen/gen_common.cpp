#include "gen/gen_common.h"

#include <array>
#include <cstdio>

namespace jsonski::gen {
namespace {

constexpr std::array<const char*, 32> kWords = {
    "stream",  "data",    "query",   "skip",    "record",  "value",
    "object",  "array",   "index",   "level",   "place",   "city",
    "product", "price",   "review",  "travel",  "route",   "summer",
    "winter",  "coffee",  "morning", "evening", "market",  "signal",
    "forward", "parallel","bitmap",  "vector",  "engine",  "student",
    "river",   "mountain",
};

constexpr std::array<const char*, 16> kTlds = {
    "com", "org", "net", "io",  "dev", "app", "co",  "us",
    "uk",  "de",  "fr",  "jp",  "edu", "gov", "info", "biz",
};

} // namespace

std::string
properName(Rng& rng)
{
    std::string s = rng.ident(3 + rng.below(9));
    s[0] = static_cast<char>(s[0] - 'a' + 'A');
    return s;
}

std::string
sentence(Rng& rng, size_t words)
{
    std::string s;
    for (size_t i = 0; i < words; ++i) {
        if (i)
            s += ' ';
        s += kWords[rng.below(kWords.size())];
    }
    return s;
}

std::string
url(Rng& rng)
{
    std::string s = "https://";
    s += rng.ident(3 + rng.below(10));
    s += '.';
    s += kTlds[rng.below(kTlds.size())];
    if (rng.chance(0.7)) {
        s += '/';
        s += rng.ident(4 + rng.below(12));
    }
    if (rng.chance(0.3)) {
        s += "?id=";
        s += std::to_string(rng.below(1000000));
    }
    return s;
}

std::string
timestamp(Rng& rng)
{
    // Room for any six ints, so no truncation is possible whatever
    // range the compiler assumes for them (-Wformat-truncation at -O0).
    char buf[80];
    std::snprintf(buf, sizeof(buf), "20%02d-%02d-%02dT%02d:%02d:%02dZ",
                  static_cast<int>(rng.below(27)),
                  static_cast<int>(rng.below(12)) + 1,
                  static_cast<int>(rng.below(28)) + 1,
                  static_cast<int>(rng.below(24)),
                  static_cast<int>(rng.below(60)),
                  static_cast<int>(rng.below(60)));
    return buf;
}

std::string
postcode(Rng& rng)
{
    std::string s;
    s += static_cast<char>('A' + rng.below(26));
    s += static_cast<char>('A' + rng.below(26));
    s += std::to_string(rng.below(100));
    s += ' ';
    s += std::to_string(rng.below(10));
    s += static_cast<char>('A' + rng.below(26));
    s += static_cast<char>('A' + rng.below(26));
    return s;
}

double
latitude(Rng& rng)
{
    return static_cast<double>(rng.range(-90000000, 90000000)) / 1e6;
}

double
longitude(Rng& rng)
{
    return static_cast<double>(rng.range(-180000000, 180000000)) / 1e6;
}

} // namespace jsonski::gen
