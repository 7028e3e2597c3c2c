// Typed tabular dataset: the interchange format between the simulators, the
// generative models and the evaluation harness.
//
// Storage is a dense float matrix; categorical cells hold the category index
// defined by their column's ColumnMeta.  This mirrors how tabular-GAN
// pipelines (CTGAN/SDV) treat mixed-type data.
#ifndef KINETGAN_DATA_TABLE_H
#define KINETGAN_DATA_TABLE_H

#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/csv.hpp"
#include "src/tensor/matrix.hpp"

namespace kinet::data {

enum class ColumnType {
    categorical,
    continuous,
};

/// Schema entry for one column.
struct ColumnMeta {
    std::string name;
    ColumnType type = ColumnType::continuous;
    /// Category labels; defines the index encoding (categorical only).
    std::vector<std::string> categories;

    [[nodiscard]] bool is_categorical() const noexcept { return type == ColumnType::categorical; }
    /// Index of a label; throws kinet::Error if unknown.
    [[nodiscard]] std::size_t category_id(const std::string& label) const;
    /// Index of a label if present.
    [[nodiscard]] std::optional<std::size_t> find_category(const std::string& label) const;

    static ColumnMeta categorical_column(std::string name, std::vector<std::string> categories);
    static ColumnMeta continuous_column(std::string name);
};

/// Row-oriented mixed-type table with a fixed schema.
class Table {
public:
    Table() = default;
    explicit Table(std::vector<ColumnMeta> columns);

    [[nodiscard]] std::size_t rows() const noexcept { return values_.rows(); }
    [[nodiscard]] std::size_t cols() const noexcept { return columns_.size(); }

    [[nodiscard]] const std::vector<ColumnMeta>& schema() const noexcept { return columns_; }
    [[nodiscard]] const ColumnMeta& meta(std::size_t col) const;
    /// Column index by name; throws kinet::Error if absent.
    [[nodiscard]] std::size_t column_index(const std::string& name) const;

    /// Raw numeric value (category index for categorical columns).
    [[nodiscard]] float value(std::size_t row, std::size_t col) const;
    void set_value(std::size_t row, std::size_t col, float v);

    /// Category index of a categorical cell (validated).
    [[nodiscard]] std::size_t category_at(std::size_t row, std::size_t col) const;
    /// Category label of a categorical cell.
    [[nodiscard]] const std::string& label_at(std::size_t row, std::size_t col) const;

    /// Appends a row given raw numeric values (width-checked; categorical
    /// entries validated against the schema).
    void append_row(const std::vector<float>& raw);

    /// Appends all rows of a schema-compatible table.
    void append_rows(const Table& other);

    /// Appends rows [row_begin, row_end) of a schema-compatible table —
    /// the streaming sample path's chunk assembly.
    void append_row_range(const Table& other, std::size_t row_begin, std::size_t row_end);

    /// Drops all rows, keeping schema and storage capacity (reused chunk
    /// buffers in the streaming sample path).
    void clear_rows() noexcept { values_.clear_rows(); }

    /// Replaces the contents with `values` (rows x schema-width raw
    /// storage, categorical cells validated against the schema), reusing
    /// the existing capacity — the bulk twin of repeated append_row.
    void overwrite_rows(const tensor::Matrix& values);

    /// New table containing the given rows in order.
    [[nodiscard]] Table select_rows(const std::vector<std::size_t>& indices) const;

    /// Histogram of category indices for a categorical column.
    [[nodiscard]] std::vector<std::size_t> category_counts(std::size_t col) const;

    /// All values of one column as a dense vector.
    [[nodiscard]] std::vector<float> column_values(std::size_t col) const;

    /// Underlying matrix (rows x cols), e.g. for distance computations.
    [[nodiscard]] const tensor::Matrix& matrix() const noexcept { return values_; }

    /// CSV round-trip (labels written for categorical cells).
    [[nodiscard]] csv::Document to_csv() const;
    [[nodiscard]] static Table from_csv(const csv::Document& doc,
                                        const std::vector<ColumnMeta>& schema);

    /// Appends the CSV text of this table to `out` (header line first when
    /// include_header) without building a csv::Document: byte-identical to
    /// csv::serialize_append(to_csv(), include_header, out).  Throws
    /// kinet::Error on an out-of-range stored category, like to_csv().
    void append_csv(std::string& out, bool include_header) const;

private:
    std::vector<ColumnMeta> columns_;
    tensor::Matrix values_;
};

/// Schema serialization for model snapshots.
void save_schema(bytes::Writer& out, const std::vector<ColumnMeta>& schema);
[[nodiscard]] std::vector<ColumnMeta> load_schema(bytes::Reader& in);

}  // namespace kinet::data

#endif  // KINETGAN_DATA_TABLE_H
