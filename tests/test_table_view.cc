// TableView basics: the implicit SelectionSlice conversion the batch
// kernels rely on, and materializing a selection of a view that
// carries an external weight span.
#include "storage/table_view.h"

#include <gtest/gtest.h>

#include <vector>

#include "storage/table.h"

namespace mosaic {
namespace {

TEST(SelectionSlice, ConvertsFromVector) {
  std::vector<uint32_t> rows{7, 9};
  SelectionSlice s = rows;
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[1], 9u);
  EXPECT_EQ(s.data(), rows.data());
}

TEST(TableView, MaterializesSelectionWithExternalSpan) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"i", DataType::kInt64}).ok());
  ASSERT_TRUE(schema.AddColumn({"s", DataType::kString}).ok());
  Table t(schema);
  static const char* strs[] = {"x", "y", "z"};
  for (size_t r = 0; r < 6; ++r) {
    ASSERT_TRUE(
        t.AppendRow({Value(static_cast<int64_t>(r)), Value(strs[r % 3])})
            .ok());
  }
  std::vector<double> weights{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  TableView view(t);
  ASSERT_TRUE(view.AddDoubleSpan("w", weights.data(), weights.size()).ok());
  ASSERT_EQ(view.num_columns(), 3u);

  Table out = view.Materialize(SelectionVector(std::vector<uint32_t>{1, 4}));
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.GetValue(0, 0).AsInt64(), 1);
  EXPECT_EQ(out.GetValue(1, 1).AsString(), "y");
  EXPECT_DOUBLE_EQ(out.GetValue(1, 2).AsDouble(), 0.4);
}

}  // namespace
}  // namespace mosaic
