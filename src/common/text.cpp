#include "src/common/text.hpp"

#include <array>
#include <cctype>
#include <charconv>

#include "src/common/check.hpp"

namespace kinet::text {

std::vector<std::string> split(std::string_view s, char delim) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = s.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(start));
            break;
        }
        out.emplace_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::string_view trim(std::string_view s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) {
        ++b;
    }
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
        --e;
    }
    return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) {
            out += sep;
        }
        out += items[i];
    }
    return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
    return s.substr(0, prefix.size()) == prefix;
}

void append_double(std::string& out, double v, int precision) {
    // Sign, the 309 integer digits of the largest finite double, the point
    // and up to 89 fraction digits.  Left uninitialised on purpose (this
    // runs per served cell): only [data, end) is read back.
    std::array<char, 400> buf;
    const auto [end, ec] =
        std::to_chars(buf.data(), buf.data() + buf.size(), v, std::chars_format::fixed, precision);
    KINET_CHECK(ec == std::errc{}, "format_double: precision " + std::to_string(precision) +
                                       " does not fit the format buffer");
    out.append(buf.data(), end);
}

std::string format_double(double v, int precision) {
    std::string out;
    append_double(out, v, precision);
    return out;
}

std::string pad(std::string_view s, std::size_t width) {
    std::string out(s.substr(0, width));
    while (out.size() < width) {
        out.push_back(' ');
    }
    return out;
}

std::string hex_encode(std::string_view bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out.push_back(kDigits[b >> 4]);
        out.push_back(kDigits[b & 0x0f]);
    }
    return out;
}

namespace {

int hex_nibble(char c) {
    if (c >= '0' && c <= '9') {
        return c - '0';
    }
    if (c >= 'a' && c <= 'f') {
        return c - 'a' + 10;
    }
    if (c >= 'A' && c <= 'F') {
        return c - 'A' + 10;
    }
    return -1;
}

}  // namespace

std::string hex_decode(std::string_view hex) {
    KINET_CHECK(hex.size() % 2 == 0, "hex_decode: odd-length input");
    std::string out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        const int hi = hex_nibble(hex[i]);
        const int lo = hex_nibble(hex[i + 1]);
        KINET_CHECK(hi >= 0 && lo >= 0, "hex_decode: non-hex character");
        out.push_back(static_cast<char>((hi << 4) | lo));
    }
    return out;
}

}  // namespace kinet::text
