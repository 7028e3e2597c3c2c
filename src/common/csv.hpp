// Minimal CSV reader/writer.
//
// Handles the subset of RFC 4180 the project needs: comma separation,
// double-quote quoting with embedded commas/quotes, and a mandatory header
// row.  Used to export simulated datasets and benchmark reports.
#ifndef KINETGAN_COMMON_CSV_H
#define KINETGAN_COMMON_CSV_H

#include <string>
#include <string_view>
#include <vector>

namespace kinet::csv {

/// A parsed CSV document: header plus data rows (all cells as strings).
struct Document {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/// Parses CSV text; throws kinet::Error on ragged rows or bad quoting.
[[nodiscard]] Document parse(const std::string& content);

/// Reads and parses a CSV file; throws kinet::Error if unreadable.
[[nodiscard]] Document read_file(const std::string& path);

/// Serialises a document (quoting cells only when needed).
[[nodiscard]] std::string serialize(const Document& doc);

/// Appends the serialized form of `doc` to `out`; with include_header
/// false only the data rows are written — the streamed-chunk continuation
/// form, byte-identical to one big serialize() when chunks concatenate.
void serialize_append(const Document& doc, bool include_header, std::string& out);

/// Appends one cell, quoted only when it contains a comma, quote, CR or LF
/// (embedded quotes doubled) — the single quoting rule shared by the
/// Document writer and data::Table::append_csv.
void append_cell(std::string& out, std::string_view cell);

/// Writes a document to disk; throws kinet::Error on I/O failure.
void write_file(const std::string& path, const Document& doc);

}  // namespace kinet::csv

#endif  // KINETGAN_COMMON_CSV_H
