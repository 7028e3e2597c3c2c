#include "src/data/table.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/check.hpp"
#include "src/common/text.hpp"

namespace kinet::data {
namespace {

// Fraction digits of a continuous cell in CSV output.
constexpr int kCsvDecimals = 6;

}  // namespace

std::size_t ColumnMeta::category_id(const std::string& label) const {
    const auto found = find_category(label);
    KINET_CHECK(found.has_value(), "unknown category '" + label + "' in column " + name);
    return *found;
}

std::optional<std::size_t> ColumnMeta::find_category(const std::string& label) const {
    const auto it = std::find(categories.begin(), categories.end(), label);
    if (it == categories.end()) {
        return std::nullopt;
    }
    return static_cast<std::size_t>(it - categories.begin());
}

ColumnMeta ColumnMeta::categorical_column(std::string name, std::vector<std::string> categories) {
    KINET_CHECK(!categories.empty(), "categorical column needs at least one category");
    ColumnMeta meta;
    meta.name = std::move(name);
    meta.type = ColumnType::categorical;
    meta.categories = std::move(categories);
    return meta;
}

ColumnMeta ColumnMeta::continuous_column(std::string name) {
    ColumnMeta meta;
    meta.name = std::move(name);
    meta.type = ColumnType::continuous;
    return meta;
}

Table::Table(std::vector<ColumnMeta> columns) : columns_(std::move(columns)) {
    KINET_CHECK(!columns_.empty(), "Table needs at least one column");
    values_.resize(0, columns_.size());
}

const ColumnMeta& Table::meta(std::size_t col) const {
    KINET_CHECK(col < columns_.size(), "column index out of range");
    return columns_[col];
}

std::size_t Table::column_index(const std::string& name) const {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
        if (columns_[c].name == name) {
            return c;
        }
    }
    throw Error("no column named '" + name + "'");
}

float Table::value(std::size_t row, std::size_t col) const {
    KINET_CHECK(row < rows() && col < cols(), "Table::value out of range");
    return values_(row, col);
}

void Table::set_value(std::size_t row, std::size_t col, float v) {
    KINET_CHECK(row < rows() && col < cols(), "Table::set_value out of range");
    if (columns_[col].is_categorical()) {
        const auto id = static_cast<std::size_t>(std::lround(v));
        KINET_CHECK(id < columns_[col].categories.size(),
                    "category index out of range for column " + columns_[col].name);
    }
    values_(row, col) = v;
}

std::size_t Table::category_at(std::size_t row, std::size_t col) const {
    KINET_CHECK(meta(col).is_categorical(), "category_at on continuous column");
    const auto id = static_cast<std::size_t>(std::lround(value(row, col)));
    KINET_CHECK(id < columns_[col].categories.size(), "stored category index out of range");
    return id;
}

const std::string& Table::label_at(std::size_t row, std::size_t col) const {
    return columns_[col].categories[category_at(row, col)];
}

void Table::append_row(const std::vector<float>& raw) {
    KINET_CHECK(raw.size() == columns_.size(), "append_row: width mismatch");
    for (std::size_t c = 0; c < raw.size(); ++c) {
        if (columns_[c].is_categorical()) {
            const auto id = static_cast<std::size_t>(std::lround(raw[c]));
            KINET_CHECK(id < columns_[c].categories.size(),
                        "append_row: category index out of range in column " + columns_[c].name);
        } else {
            KINET_CHECK(std::isfinite(raw[c]),
                        "append_row: non-finite value in column " + columns_[c].name);
        }
    }
    tensor::Matrix row(1, raw.size());
    std::copy(raw.begin(), raw.end(), row.row(0).begin());
    values_.append_rows(row);
}

void Table::append_rows(const Table& other) {
    KINET_CHECK(cols() == other.cols(), "append_rows: schema width mismatch");
    for (std::size_t c = 0; c < cols(); ++c) {
        KINET_CHECK(columns_[c].type == other.columns_[c].type,
                    "append_rows: column type mismatch at " + columns_[c].name);
    }
    values_.append_rows(other.values_);
}

void Table::append_row_range(const Table& other, std::size_t row_begin, std::size_t row_end) {
    KINET_CHECK(cols() == other.cols(), "append_row_range: schema width mismatch");
    for (std::size_t c = 0; c < cols(); ++c) {
        KINET_CHECK(columns_[c].type == other.columns_[c].type,
                    "append_row_range: column type mismatch at " + columns_[c].name);
    }
    values_.append_row_range(other.values_, row_begin, row_end);
}

void Table::overwrite_rows(const tensor::Matrix& values) {
    KINET_CHECK(values.cols() == cols(), "overwrite_rows: width mismatch");
    for (std::size_t r = 0; r < values.rows(); ++r) {
        for (std::size_t c = 0; c < cols(); ++c) {
            if (columns_[c].is_categorical()) {
                const auto id = static_cast<std::size_t>(std::lround(values(r, c)));
                KINET_CHECK(id < columns_[c].categories.size(),
                            "overwrite_rows: category index out of range in column " +
                                columns_[c].name);
            } else {
                KINET_CHECK(std::isfinite(values(r, c)),
                            "overwrite_rows: non-finite value in column " + columns_[c].name);
            }
        }
    }
    values_.resize_for_overwrite(values.rows(), cols());
    const auto src = values.data();
    std::copy(src.begin(), src.end(), values_.data().begin());
}

Table Table::select_rows(const std::vector<std::size_t>& indices) const {
    Table out(columns_);
    out.values_ = values_.gather_rows(indices);
    return out;
}

std::vector<std::size_t> Table::category_counts(std::size_t col) const {
    KINET_CHECK(meta(col).is_categorical(), "category_counts on continuous column");
    std::vector<std::size_t> counts(columns_[col].categories.size(), 0);
    for (std::size_t r = 0; r < rows(); ++r) {
        ++counts[category_at(r, col)];
    }
    return counts;
}

std::vector<float> Table::column_values(std::size_t col) const {
    KINET_CHECK(col < cols(), "column index out of range");
    std::vector<float> out(rows());
    for (std::size_t r = 0; r < rows(); ++r) {
        out[r] = values_(r, col);
    }
    return out;
}

csv::Document Table::to_csv() const {
    csv::Document doc;
    doc.header.reserve(cols());
    for (const auto& meta : columns_) {
        doc.header.push_back(meta.name);
    }
    doc.rows.reserve(rows());
    for (std::size_t r = 0; r < rows(); ++r) {
        std::vector<std::string> row;
        row.reserve(cols());
        for (std::size_t c = 0; c < cols(); ++c) {
            if (columns_[c].is_categorical()) {
                row.push_back(label_at(r, c));
            } else {
                row.push_back(text::format_double(values_(r, c), kCsvDecimals));
            }
        }
        doc.rows.push_back(std::move(row));
    }
    return doc;
}

void Table::append_csv(std::string& out, bool include_header) const {
    if (include_header) {
        for (std::size_t c = 0; c < cols(); ++c) {
            if (c > 0) {
                out.push_back(',');
            }
            csv::append_cell(out, columns_[c].name);
        }
        out.push_back('\n');
    }
    for (std::size_t r = 0; r < rows(); ++r) {
        for (std::size_t c = 0; c < cols(); ++c) {
            if (c > 0) {
                out.push_back(',');
            }
            if (columns_[c].is_categorical()) {
                csv::append_cell(out, label_at(r, c));
            } else {
                // A fixed-notation number never needs quoting.
                text::append_double(out, values_(r, c), kCsvDecimals);
            }
        }
        out.push_back('\n');
    }
}

Table Table::from_csv(const csv::Document& doc, const std::vector<ColumnMeta>& schema) {
    KINET_CHECK(doc.header.size() == schema.size(), "from_csv: header/schema width mismatch");
    Table out(schema);
    for (const auto& row : doc.rows) {
        std::vector<float> raw(schema.size());
        for (std::size_t c = 0; c < schema.size(); ++c) {
            if (schema[c].is_categorical()) {
                raw[c] = static_cast<float>(schema[c].category_id(row[c]));
            } else {
                raw[c] = std::stof(row[c]);
            }
        }
        out.append_row(raw);
    }
    return out;
}

void save_schema(bytes::Writer& out, const std::vector<ColumnMeta>& schema) {
    out.u64(schema.size());
    for (const auto& meta : schema) {
        out.str(meta.name);
        out.u8(meta.is_categorical() ? 1 : 0);
        out.u64(meta.categories.size());
        for (const auto& label : meta.categories) {
            out.str(label);
        }
    }
}

std::vector<ColumnMeta> load_schema(bytes::Reader& in) {
    // Counts are buffer-bounded before sizing containers: a column costs
    // at least name prefix + type byte + category count (17 bytes); a
    // category at least its 8-byte length prefix.
    const std::size_t cols = in.element_count(17, "schema columns");
    std::vector<ColumnMeta> schema;
    schema.reserve(cols);
    for (std::size_t c = 0; c < cols; ++c) {
        ColumnMeta meta;
        meta.name = in.str();
        meta.type = in.u8() != 0 ? ColumnType::categorical : ColumnType::continuous;
        const std::size_t k = in.element_count(8, "schema categories");
        meta.categories.reserve(k);
        for (std::size_t i = 0; i < k; ++i) {
            meta.categories.push_back(in.str());
        }
        KINET_CHECK(!meta.is_categorical() || !meta.categories.empty(),
                    "load_schema: categorical column " + meta.name + " without categories");
        schema.push_back(std::move(meta));
    }
    return schema;
}

}  // namespace kinet::data
