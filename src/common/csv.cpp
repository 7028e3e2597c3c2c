#include "src/common/csv.hpp"

#include <fstream>
#include <sstream>

#include "src/common/check.hpp"

namespace kinet::csv {
namespace {

// Parses one logical CSV record starting at `pos`; advances `pos` past the
// record's terminating newline (or to content.size()).
std::vector<std::string> parse_record(const std::string& content, std::size_t& pos) {
    std::vector<std::string> fields;
    std::string field;
    bool in_quotes = false;
    while (pos < content.size()) {
        const char c = content[pos];
        if (in_quotes) {
            if (c == '"') {
                if (pos + 1 < content.size() && content[pos + 1] == '"') {
                    field.push_back('"');
                    pos += 2;
                } else {
                    in_quotes = false;
                    ++pos;
                }
            } else {
                field.push_back(c);
                ++pos;
            }
        } else if (c == '"') {
            KINET_CHECK(field.empty(), "quote in the middle of an unquoted CSV field");
            in_quotes = true;
            ++pos;
        } else if (c == ',') {
            fields.push_back(std::move(field));
            field.clear();
            ++pos;
        } else if (c == '\n' || c == '\r') {
            if (c == '\r' && pos + 1 < content.size() && content[pos + 1] == '\n') {
                ++pos;
            }
            ++pos;
            break;
        } else {
            field.push_back(c);
            ++pos;
        }
    }
    KINET_CHECK(!in_quotes, "unterminated quoted CSV field");
    fields.push_back(std::move(field));
    return fields;
}

}  // namespace

void append_cell(std::string& out, std::string_view cell) {
    if (cell.find_first_of(",\"\n\r") == std::string_view::npos) {
        out += cell;
        return;
    }
    out.push_back('"');
    for (const char c : cell) {
        if (c == '"') {
            out += "\"\"";
        } else {
            out.push_back(c);
        }
    }
    out.push_back('"');
}

Document parse(const std::string& content) {
    Document doc;
    std::size_t pos = 0;
    KINET_CHECK(!content.empty(), "empty CSV document");
    doc.header = parse_record(content, pos);
    while (pos < content.size()) {
        // Skip blank trailing lines.
        if (content[pos] == '\n' || content[pos] == '\r') {
            ++pos;
            continue;
        }
        auto row = parse_record(content, pos);
        KINET_CHECK(row.size() == doc.header.size(),
                    "CSV row has " + std::to_string(row.size()) + " fields, header has " +
                        std::to_string(doc.header.size()));
        doc.rows.push_back(std::move(row));
    }
    return doc;
}

Document read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    KINET_CHECK(in.good(), "cannot open CSV file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str());
}

void serialize_append(const Document& doc, bool include_header, std::string& out) {
    auto write_row = [&out](const std::vector<std::string>& row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i > 0) {
                out.push_back(',');
            }
            append_cell(out, row[i]);
        }
        out.push_back('\n');
    };
    if (include_header) {
        write_row(doc.header);
    }
    for (const auto& row : doc.rows) {
        KINET_CHECK(row.size() == doc.header.size(), "ragged CSV row on serialize");
        write_row(row);
    }
}

std::string serialize(const Document& doc) {
    std::string out;
    serialize_append(doc, /*include_header=*/true, out);
    return out;
}

void write_file(const std::string& path, const Document& doc) {
    std::ofstream out(path, std::ios::binary);
    KINET_CHECK(out.good(), "cannot open CSV file for writing: " + path);
    out << serialize(doc);
    KINET_CHECK(out.good(), "I/O error while writing CSV file: " + path);
}

}  // namespace kinet::csv
