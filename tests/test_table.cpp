// Tests for the typed Table and its CSV round-trip.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/data/table.hpp"
#include "src/netsim/lab_simulator.hpp"
#include "src/netsim/unsw_synthesizer.hpp"

namespace {

using kinet::Error;
using kinet::data::ColumnMeta;
using kinet::data::Table;

std::vector<ColumnMeta> demo_schema() {
    return {
        ColumnMeta::categorical_column("proto", {"tcp", "udp"}),
        ColumnMeta::continuous_column("bytes"),
        ColumnMeta::categorical_column("label", {"benign", "attack"}),
    };
}

Table demo_table() {
    Table t(demo_schema());
    t.append_row({0.0F, 100.0F, 0.0F});
    t.append_row({1.0F, 250.0F, 0.0F});
    t.append_row({0.0F, 9000.0F, 1.0F});
    return t;
}

TEST(ColumnMeta, CategoryLookup) {
    const auto meta = ColumnMeta::categorical_column("c", {"a", "b"});
    EXPECT_EQ(meta.category_id("b"), 1U);
    EXPECT_FALSE(meta.find_category("z").has_value());
    EXPECT_THROW((void)meta.category_id("z"), Error);
    EXPECT_THROW((void)ColumnMeta::categorical_column("c", {}), Error);
}

TEST(Table, AppendValidatesWidthAndCategories) {
    Table t(demo_schema());
    EXPECT_THROW(t.append_row({0.0F, 1.0F}), Error);            // too narrow
    EXPECT_THROW(t.append_row({5.0F, 1.0F, 0.0F}), Error);      // bad category
    EXPECT_THROW(t.append_row({0.0F, NAN, 0.0F}), Error);       // non-finite
    t.append_row({1.0F, 3.0F, 1.0F});
    EXPECT_EQ(t.rows(), 1U);
}

TEST(Table, AccessorsAndLabels) {
    const Table t = demo_table();
    EXPECT_EQ(t.rows(), 3U);
    EXPECT_EQ(t.cols(), 3U);
    EXPECT_EQ(t.column_index("bytes"), 1U);
    EXPECT_THROW((void)t.column_index("nope"), Error);
    EXPECT_EQ(t.category_at(1, 0), 1U);
    EXPECT_EQ(t.label_at(2, 2), "attack");
    EXPECT_THROW((void)t.category_at(0, 1), Error);  // continuous column
}

TEST(Table, SelectRowsPreservesSchemaAndOrder) {
    const Table t = demo_table();
    const Table s = t.select_rows({2, 0});
    EXPECT_EQ(s.rows(), 2U);
    EXPECT_FLOAT_EQ(s.value(0, 1), 9000.0F);
    EXPECT_FLOAT_EQ(s.value(1, 1), 100.0F);
    EXPECT_EQ(s.schema()[0].name, "proto");
}

TEST(Table, CategoryCounts) {
    const Table t = demo_table();
    const auto counts = t.category_counts(0);
    ASSERT_EQ(counts.size(), 2U);
    EXPECT_EQ(counts[0], 2U);  // tcp
    EXPECT_EQ(counts[1], 1U);  // udp
    EXPECT_THROW((void)t.category_counts(1), Error);
}

TEST(Table, AppendRowsChecksSchema) {
    Table a = demo_table();
    const Table b = demo_table();
    a.append_rows(b);
    EXPECT_EQ(a.rows(), 6U);
    Table wrong(std::vector<ColumnMeta>{ColumnMeta::continuous_column("x")});
    EXPECT_THROW(a.append_rows(wrong), Error);
}

TEST(Table, CsvRoundTrip) {
    const Table t = demo_table();
    const auto doc = t.to_csv();
    EXPECT_EQ(doc.header[0], "proto");
    EXPECT_EQ(doc.rows[0][0], "tcp");
    const Table back = Table::from_csv(doc, demo_schema());
    ASSERT_EQ(back.rows(), t.rows());
    for (std::size_t r = 0; r < t.rows(); ++r) {
        EXPECT_EQ(back.category_at(r, 0), t.category_at(r, 0));
        EXPECT_NEAR(back.value(r, 1), t.value(r, 1), 1e-3F);
        EXPECT_EQ(back.category_at(r, 2), t.category_at(r, 2));
    }
}

TEST(Table, SetValueValidatesCategoricalRange) {
    Table t = demo_table();
    t.set_value(0, 0, 1.0F);
    EXPECT_EQ(t.category_at(0, 0), 1U);
    EXPECT_THROW(t.set_value(0, 0, 9.0F), Error);
    EXPECT_THROW(t.set_value(9, 0, 0.0F), Error);
}

/// The reference path the direct writer must reproduce byte for byte.
std::string via_document(const Table& t, bool include_header, std::string out = {}) {
    kinet::csv::serialize_append(t.to_csv(), include_header, out);
    return out;
}

std::string via_append(const Table& t, bool include_header, std::string out = {}) {
    t.append_csv(out, include_header);
    return out;
}

/// `rows` random rows over `schema`: categories uniform over each column,
/// continuous cells signed and spread over 18 orders of magnitude.
Table random_table(const std::vector<ColumnMeta>& schema, std::size_t rows, kinet::Rng& rng) {
    kinet::tensor::Matrix values(rows, schema.size());
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < schema.size(); ++c) {
            values(r, c) =
                schema[c].is_categorical()
                    ? static_cast<float>(rng.randint(0, static_cast<std::int64_t>(
                                                            schema[c].categories.size() - 1)))
                    : static_cast<float>(rng.uniform(-1.0, 1.0) *
                                         std::pow(10.0, rng.uniform(-9.0, 9.0)));
        }
    }
    Table t(schema);
    t.overwrite_rows(values);
    return t;
}

TEST(TableAppendCsv, MatchesDocumentPathOnLabAndUnswShapes) {
    kinet::netsim::LabSimOptions lab;
    lab.records = 64;
    kinet::netsim::UnswOptions unsw;
    unsw.records = 64;
    kinet::Rng rng(91);
    for (const Table& sim : {kinet::netsim::LabTrafficSimulator(lab).generate(),
                             kinet::netsim::UnswNb15Synthesizer(unsw).generate()}) {
        for (const Table& t : {sim, random_table(sim.schema(), 300, rng)}) {
            for (const bool header : {true, false}) {
                ASSERT_EQ(via_append(t, header), via_document(t, header));
            }
        }
    }
}

TEST(TableAppendCsv, QuotesLabelsAndNamesLikeTheDocumentWriter) {
    const std::vector<ColumnMeta> schema = {
        ColumnMeta::categorical_column("proto,name",
                                       {"plain", "a,b", "say \"hi\"", "l1\nl2", "cr\rx"}),
        ColumnMeta::continuous_column("bytes \"raw\""),
        ColumnMeta::categorical_column("label", {"benign", "attack"}),
    };
    kinet::Rng rng(92);
    const Table t = random_table(schema, 200, rng);
    const std::string text = via_append(t, true);
    EXPECT_EQ(text, via_document(t, true));
    EXPECT_EQ(text.substr(0, text.find('\n')), "\"proto,name\",\"bytes \"\"raw\"\"\",label");
    EXPECT_EQ(via_append(t, false), via_document(t, false));
}

TEST(TableAppendCsv, ZeroRowsAndNonEmptyBuffers) {
    const Table empty(demo_schema());
    EXPECT_EQ(via_append(empty, true), "proto,bytes,label\n");
    EXPECT_EQ(via_append(empty, true), via_document(empty, true));
    EXPECT_EQ(via_append(empty, false), "");
    EXPECT_EQ(via_append(empty, false), via_document(empty, false));
    // Appending never touches what the buffer already holds.
    const Table t = demo_table();
    const std::string prefix = "CHUNK 99\nearlier,bytes\n";
    for (const bool header : {true, false}) {
        EXPECT_EQ(via_append(t, header, prefix), via_document(t, header, prefix));
        EXPECT_EQ(via_append(t, header, prefix).substr(0, prefix.size()), prefix);
    }
}

TEST(TableAppendCsv, OutOfRangeStoredCategoryThrows) {
    // append_rows checks column types, not category counts, so a wider
    // table's index can land in a narrower schema.
    Table wide(std::vector<ColumnMeta>{ColumnMeta::categorical_column("c", {"a", "b", "z"})});
    wide.append_row({2.0F});
    Table narrow(std::vector<ColumnMeta>{ColumnMeta::categorical_column("c", {"a", "b"})});
    narrow.append_rows(wide);
    std::string out;
    EXPECT_THROW(narrow.append_csv(out, true), Error);
    EXPECT_THROW((void)narrow.to_csv(), Error);
}

}  // namespace
