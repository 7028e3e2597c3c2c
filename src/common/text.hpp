// Small string helpers used by the CSV layer, KG symbol parsing and report
// printers.  Kept dependency-free and allocation-conscious.
#ifndef KINETGAN_COMMON_TEXT_H
#define KINETGAN_COMMON_TEXT_H

#include <string>
#include <string_view>
#include <vector>

namespace kinet::text {

/// Splits on a single-character delimiter; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Joins items with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& items, std::string_view sep);

/// True if s starts with the given prefix.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Fixed-precision double formatting: the bytes printf("%.*f") produces in
/// the C locale (including "inf", "-inf", "nan", "-nan" and "-0.000000"),
/// via std::to_chars — no stream or locale object per call.
[[nodiscard]] std::string format_double(double v, int precision);

/// format_double appended to `out` — the allocation-free form the CSV
/// writers use per cell.
void append_double(std::string& out, double v, int precision);

/// Left-pads/truncates to a column width for aligned console tables.
[[nodiscard]] std::string pad(std::string_view s, std::size_t width);

/// Lowercase hex encoding of arbitrary bytes — used wherever untrusted
/// strings (model names, request lines) must become safe single tokens
/// (journal records, snapshot-store filenames).
[[nodiscard]] std::string hex_encode(std::string_view bytes);

/// Inverse of hex_encode; throws kinet::Error on odd length or non-hex
/// characters.
[[nodiscard]] std::string hex_decode(std::string_view hex);

}  // namespace kinet::text

#endif  // KINETGAN_COMMON_TEXT_H
