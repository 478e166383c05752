#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "common/aligned.h"
#include "common/string_util.h"
#include "exec/batch_eval.h"
#include "exec/expr_eval.h"
#include "exec/simd.h"

namespace mosaic {
namespace exec {

namespace {

/// One aggregate call site lifted out of the SELECT list.
struct AggSpec {
  sql::AggFunc func;
  bool is_star = false;
  BoundExprPtr arg;       // null for COUNT(*)
  std::string rendering;  // dedup key, e.g. "AVG(distance)"
};

/// Accumulator for one aggregate within one group.
struct AggAccum {
  double sum_w = 0.0;
  double sum_wx = 0.0;
  int64_t count_n = 0;
  Value vmin;
  Value vmax;
  bool any = false;
};

/// Groups in output order: (key values, one accumulator per spec).
using SortedGroups =
    std::vector<std::pair<std::vector<Value>, std::vector<AggAccum>>>;

struct AggCollection {
  std::vector<AggSpec> specs;
  Binder* binder = nullptr;
  Status error;

  [[nodiscard]] Result<size_t> MapAggregate(const sql::Expr& expr) {
    std::string key = expr.ToString();
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].rendering == key) return i;
    }
    AggSpec spec;
    spec.func = expr.agg_func;
    spec.is_star = expr.agg_is_star;
    spec.rendering = key;
    if (!spec.is_star) {
      if (expr.child == nullptr) {
        return Status::BindError("aggregate missing argument: " + key);
      }
      if (expr.child->ContainsAggregate()) {
        return Status::BindError("nested aggregates are not allowed: " + key);
      }
      MOSAIC_ASSIGN_OR_RETURN(spec.arg, binder->Bind(*expr.child));
    }
    specs.push_back(std::move(spec));
    return specs.size() - 1;
  }

  [[nodiscard]] static Result<size_t> MapAggregateThunk(const sql::Expr& expr, void* ctx) {
    return static_cast<AggCollection*>(ctx)->MapAggregate(expr);
  }
};

/// Column name for an output select item.
std::string OutputName(const sql::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == sql::Expr::Kind::kColumnRef) {
    return item.expr->column;
  }
  return item.expr->ToString();
}

/// In an aggregate query, any column reference outside an aggregate
/// must be a GROUP BY key (non-key columns have no single value per
/// group).
[[nodiscard]] Status ValidateGroupColumnRefs(const sql::Expr& expr,
                               const std::vector<std::string>& group_by) {
  if (expr.kind == sql::Expr::Kind::kAggregate) return Status::OK();
  if (expr.kind == sql::Expr::Kind::kColumnRef) {
    for (const auto& g : group_by) {
      if (EqualsIgnoreCase(g, expr.column)) return Status::OK();
    }
    return Status::BindError("column '" + expr.column +
                             "' must appear in GROUP BY or inside an "
                             "aggregate");
  }
  for (const sql::Expr* child :
       {expr.child.get(), expr.left.get(), expr.right.get(),
        expr.between_lo.get(), expr.between_hi.get()}) {
    if (child != nullptr) {
      MOSAIC_RETURN_IF_ERROR(ValidateGroupColumnRefs(*child, group_by));
    }
  }
  return Status::OK();
}

/// Add an output column, suffixing "_2", "_3", ... on name collisions
/// (SQL permits duplicate select-item names; our schemas do not).
[[nodiscard]] Status AddOutputColumn(Schema* schema, std::string name, DataType type) {
  if (!schema->FindColumn(name)) {
    return schema->AddColumn(ColumnDef{std::move(name), type});
  }
  for (int suffix = 2;; ++suffix) {
    std::string candidate = name + "_" + std::to_string(suffix);
    if (!schema->FindColumn(candidate)) {
      return schema->AddColumn(ColumnDef{std::move(candidate), type});
    }
  }
}

[[nodiscard]] Result<Value> Finalize(const AggSpec& spec, const AggAccum& acc,
                       bool weighted) {
  switch (spec.func) {
    case sql::AggFunc::kCount:
      if (weighted) return Value(acc.sum_w);
      return Value(acc.count_n);
    case sql::AggFunc::kSum:
      return Value(acc.sum_wx);
    case sql::AggFunc::kAvg:
      if (acc.sum_w == 0.0) {
        return Status::ExecutionError("AVG over empty/zero-weight group");
      }
      return Value(acc.sum_wx / acc.sum_w);
    case sql::AggFunc::kMin:
      if (!acc.any) {
        return Status::ExecutionError("MIN over empty group");
      }
      return acc.vmin;
    case sql::AggFunc::kMax:
      if (!acc.any) {
        return Status::ExecutionError("MAX over empty group");
      }
      return acc.vmax;
  }
  return Status::Internal("unreachable aggregate func");
}

DataType AggOutputType(const AggSpec& spec, bool weighted) {
  switch (spec.func) {
    case sql::AggFunc::kCount:
      return weighted ? DataType::kDouble : DataType::kInt64;
    case sql::AggFunc::kSum:
    case sql::AggFunc::kAvg:
      return DataType::kDouble;
    case sql::AggFunc::kMin:
    case sql::AggFunc::kMax:
      return spec.arg != nullptr ? spec.arg->type : DataType::kDouble;
  }
  return DataType::kDouble;
}

/// Project finalized groups through the SELECT items (and HAVING),
/// via a one-row synthetic table carrying the group key — shared by
/// the batch path and the row oracle so post-aggregation semantics
/// cannot drift.
[[nodiscard]] Result<Table> EmitGroups(const Schema& schema, const sql::SelectStmt& stmt,
                         const std::vector<BoundExprPtr>& bound_items,
                         const BoundExpr* bound_having,
                         const std::vector<AggSpec>& specs,
                         const std::vector<size_t>& group_cols,
                         const SortedGroups& groups, bool weighted) {
  // Output schema: SELECT items, typed by bound expression (group key
  // columns keep their source type).
  Schema out_schema;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    DataType type = bound_items[i]->type;
    if (bound_items[i]->kind == BoundExpr::Kind::kAggResult) {
      type = AggOutputType(specs[bound_items[i]->agg_slot], weighted);
    }
    MOSAIC_RETURN_IF_ERROR(
        AddOutputColumn(&out_schema, OutputName(stmt.items[i]), type));
  }
  Table out(out_schema);
  out.Reserve(groups.size());

  for (const auto& [key, accs] : groups) {
    std::vector<Value> agg_values(specs.size());
    for (size_t a = 0; a < specs.size(); ++a) {
      MOSAIC_ASSIGN_OR_RETURN(agg_values[a],
                              Finalize(specs[a], accs[a], weighted));
    }
    Table key_row(schema);
    // A full-width row carrying the group key values; non-key columns
    // hold a type-correct placeholder (never read: non-key column
    // refs were rejected at bind time, and aggregate args were
    // evaluated during accumulation).
    std::vector<Value> row_vals;
    row_vals.reserve(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      switch (schema.column(c).type) {
        case DataType::kInt64:
          row_vals.emplace_back(int64_t{0});
          break;
        case DataType::kDouble:
          row_vals.emplace_back(0.0);
          break;
        case DataType::kBool:
          row_vals.emplace_back(false);
          break;
        case DataType::kString:
          row_vals.emplace_back(std::string());
          break;
        default:
          break;
      }
    }
    for (size_t k = 0; k < group_cols.size() && k < key.size(); ++k) {
      row_vals[group_cols[k]] = key[k];
    }
    MOSAIC_RETURN_IF_ERROR(key_row.AppendRow(row_vals));
    if (bound_having != nullptr) {
      MOSAIC_ASSIGN_OR_RETURN(
          Value keep, EvaluateExpr(*bound_having, key_row, 0, &agg_values));
      if (!keep.AsBool()) continue;
    }
    std::vector<Value> out_row(bound_items.size());
    for (size_t c = 0; c < bound_items.size(); ++c) {
      MOSAIC_ASSIGN_OR_RETURN(
          out_row[c], EvaluateExpr(*bound_items[c], key_row, 0, &agg_values));
    }
    MOSAIC_RETURN_IF_ERROR(out.AppendRow(out_row));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Row oracle (the original Value-at-a-time interpreter)
// ---------------------------------------------------------------------------

[[nodiscard]] Status ApplyOrderByAndLimit(const sql::SelectStmt& stmt, Table* out,
                            bool skip_order = false) {
  if (!stmt.order_by.empty() && !skip_order) {
    std::vector<std::pair<size_t, bool>> keys;  // (col, desc)
    for (const auto& o : stmt.order_by) {
      auto idx = out->schema().FindColumn(o.column);
      if (!idx) {
        return Status::BindError("ORDER BY column '" + o.column +
                                 "' not in result set");
      }
      keys.emplace_back(*idx, o.descending);
    }
    std::vector<size_t> order(out->num_rows());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (const auto& [col, desc] : keys) {
        Value va = out->GetValue(a, col);
        Value vb = out->GetValue(b, col);
        if (va < vb) return !desc;
        if (vb < va) return desc;
      }
      return false;
    });
    *out = out->Filter(order);
  }
  if (stmt.limit && static_cast<size_t>(*stmt.limit) < out->num_rows()) {
    std::vector<size_t> head(static_cast<size_t>(*stmt.limit));
    std::iota(head.begin(), head.end(), size_t{0});
    *out = out->Filter(head);
  }
  return Status::OK();
}

}  // namespace

[[nodiscard]] Result<Table> ExecuteSelectRowOracle(const Table& source,
                                     const sql::SelectStmt& stmt,
                                     const ExecOptions& opts) {
  const Schema& schema = source.schema();
  const bool weighted = !opts.weight_column.empty();
  std::optional<size_t> weight_idx;
  if (weighted) {
    auto idx = schema.FindColumn(opts.weight_column);
    if (!idx) {
      return Status::BindError("weight column '" + opts.weight_column +
                               "' not found");
    }
    weight_idx = *idx;
  }

  // --- WHERE ---------------------------------------------------------------
  std::vector<size_t> rows;
  if (stmt.where != nullptr) {
    if (stmt.where->ContainsAggregate()) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    MOSAIC_ASSIGN_OR_RETURN(rows, FilterRows(source, *stmt.where));
  } else {
    rows.resize(source.num_rows());
    std::iota(rows.begin(), rows.end(), size_t{0});
  }

  // --- Detect aggregation --------------------------------------------------
  bool has_aggregates = false;
  for (const auto& item : stmt.items) {
    if (item.expr->ContainsAggregate()) has_aggregates = true;
  }
  if (stmt.having != nullptr && stmt.having->ContainsAggregate()) {
    has_aggregates = true;
  }
  if (stmt.select_star && (has_aggregates || !stmt.group_by.empty())) {
    return Status::BindError("SELECT * cannot be combined with aggregation");
  }
  if (!stmt.group_by.empty() && !has_aggregates) {
    return Status::BindError("GROUP BY requires aggregates in SELECT list");
  }

  // --- Projection-only path ------------------------------------------------
  if (!has_aggregates) {
    Binder binder(&schema);
    std::vector<BoundExprPtr> bound_items;
    Schema out_schema;
    if (stmt.select_star) {
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        if (weight_idx && c == *weight_idx) continue;  // hide weight
        auto e = std::make_unique<BoundExpr>();
        e->kind = BoundExpr::Kind::kColumnRef;
        e->column_index = c;
        e->type = schema.column(c).type;
        bound_items.push_back(std::move(e));
        MOSAIC_RETURN_IF_ERROR(out_schema.AddColumn(schema.column(c)));
      }
    } else {
      for (const auto& item : stmt.items) {
        MOSAIC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*item.expr));
        MOSAIC_RETURN_IF_ERROR(
            AddOutputColumn(&out_schema, OutputName(item), bound->type));
        bound_items.push_back(std::move(bound));
      }
    }
    // ORDER BY may reference columns of the source relation that are
    // not projected (standard SQL): when any order column is missing
    // from the output, sort the selected row ids by the source
    // columns before projecting.
    bool presorted = false;
    if (!stmt.order_by.empty()) {
      bool all_in_output = true;
      for (const auto& o : stmt.order_by) {
        if (!out_schema.FindColumn(o.column)) all_in_output = false;
      }
      if (!all_in_output) {
        std::vector<std::pair<size_t, bool>> keys;
        for (const auto& o : stmt.order_by) {
          auto idx = schema.FindColumn(o.column);
          if (!idx) {
            return Status::BindError("ORDER BY column '" + o.column +
                                     "' not found");
          }
          keys.emplace_back(*idx, o.descending);
        }
        std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
          for (const auto& [col, desc] : keys) {
            Value va = source.GetValue(a, col);
            Value vb = source.GetValue(b, col);
            if (va < vb) return !desc;
            if (vb < va) return desc;
          }
          return false;
        });
        presorted = true;
      }
    }
    Table out(out_schema);
    out.Reserve(rows.size());
    std::vector<Value> row(bound_items.size());
    for (size_t r : rows) {
      for (size_t c = 0; c < bound_items.size(); ++c) {
        MOSAIC_ASSIGN_OR_RETURN(row[c],
                                EvaluateExpr(*bound_items[c], source, r));
      }
      MOSAIC_RETURN_IF_ERROR(out.AppendRow(row));
    }
    MOSAIC_RETURN_IF_ERROR(ApplyOrderByAndLimit(stmt, &out, presorted));
    return out;
  }

  // --- Aggregation path ----------------------------------------------------
  // Resolve GROUP BY columns.
  std::vector<size_t> group_cols;
  for (const auto& name : stmt.group_by) {
    auto idx = schema.FindColumn(name);
    if (!idx) {
      return Status::BindError("GROUP BY column '" + name + "' not found");
    }
    group_cols.push_back(*idx);
  }

  // Lift aggregates out of the SELECT items; bind post-aggregation
  // projections against group keys + agg slots.
  Binder binder(&schema);
  AggCollection aggs;
  aggs.binder = &binder;
  binder.set_aggregate_mapper(&AggCollection::MapAggregateThunk, &aggs);

  std::vector<BoundExprPtr> bound_items;
  for (const auto& item : stmt.items) {
    // Column refs outside aggregates must be GROUP BY keys.
    MOSAIC_RETURN_IF_ERROR(
        ValidateGroupColumnRefs(*item.expr, stmt.group_by));
    MOSAIC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*item.expr));
    bound_items.push_back(std::move(bound));
  }
  // HAVING binds through the same aggregate-lifting machinery, so any
  // aggregates it mentions get slots and are accumulated below.
  BoundExprPtr bound_having;
  if (stmt.having != nullptr) {
    MOSAIC_RETURN_IF_ERROR(
        ValidateGroupColumnRefs(*stmt.having, stmt.group_by));
    MOSAIC_ASSIGN_OR_RETURN(bound_having, binder.Bind(*stmt.having));
    if (bound_having->type != DataType::kBool) {
      return Status::TypeError("HAVING predicate must be boolean");
    }
  }

  // Accumulate per group. std::map over key vectors gives a
  // deterministic (sorted) group order.
  std::map<std::vector<Value>, std::vector<AggAccum>> groups;
  for (size_t r : rows) {
    std::vector<Value> key;
    key.reserve(group_cols.size());
    for (size_t c : group_cols) key.push_back(source.GetValue(r, c));
    auto [it, inserted] = groups.try_emplace(
        std::move(key), std::vector<AggAccum>(aggs.specs.size()));
    double w = 1.0;
    if (weight_idx) {
      MOSAIC_ASSIGN_OR_RETURN(w, source.column(*weight_idx).GetDouble(r));
    }
    for (size_t a = 0; a < aggs.specs.size(); ++a) {
      AggAccum& acc = it->second[a];
      const AggSpec& spec = aggs.specs[a];
      acc.sum_w += w;
      acc.count_n += 1;
      if (!spec.is_star && spec.arg != nullptr) {
        MOSAIC_ASSIGN_OR_RETURN(Value v,
                                EvaluateExpr(*spec.arg, source, r));
        if (spec.func == sql::AggFunc::kSum ||
            spec.func == sql::AggFunc::kAvg) {
          MOSAIC_ASSIGN_OR_RETURN(double x, v.ToDouble());
          acc.sum_wx += w * x;
        }
        if (!acc.any || v < acc.vmin) acc.vmin = v;
        if (!acc.any || acc.vmax < v) acc.vmax = v;
        acc.any = true;
      }
    }
  }
  // GROUP BY with no matching rows yields an empty result; a global
  // aggregate (no GROUP BY) yields one row even over zero rows.
  if (groups.empty() && stmt.group_by.empty()) {
    groups.emplace(std::vector<Value>{},
                   std::vector<AggAccum>(aggs.specs.size()));
  }

  SortedGroups sorted_groups;
  sorted_groups.reserve(groups.size());
  for (auto& [key, accs] : groups) {
    sorted_groups.emplace_back(key, std::move(accs));
  }
  MOSAIC_ASSIGN_OR_RETURN(
      Table out, EmitGroups(schema, stmt, bound_items, bound_having.get(),
                            aggs.specs, group_cols, sorted_groups, weighted));
  MOSAIC_RETURN_IF_ERROR(ApplyOrderByAndLimit(stmt, &out));
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Batch path (vectorized columnar pipeline)
// ---------------------------------------------------------------------------

/// Typed sort key for one ORDER BY column, precomputed once per row
/// position: numeric columns compare through double (exactly like
/// Value::operator<), string columns through the code's lexicographic
/// rank in its dictionary.
struct SortKeyCol {
  bool is_string = false;
  bool desc = false;
  std::vector<double> num;
  std::vector<int32_t> rank;
};

/// rank[code] = lexicographic position of the code's string.
std::vector<int32_t> DictionaryRanks(const Dictionary& dict) {
  std::vector<int32_t> order(dict.size());
  std::iota(order.begin(), order.end(), 0);
  const std::vector<std::string>& values = dict.values();
  std::sort(order.begin(), order.end(),
            [&](int32_t a, int32_t b) { return values[a] < values[b]; });
  std::vector<int32_t> rank(dict.size());
  for (size_t i = 0; i < order.size(); ++i) rank[order[i]] = i;
  return rank;
}

/// Numeric sort-key gather through the active kernel table.
void GatherNumKey(const ColumnSpan& span, const uint32_t* rows, size_t n,
                  double* out) {
  const simd::KernelTable& k = simd::ActiveKernels();
  switch (span.type) {
    case DataType::kInt64:
      k.gather_i64_f64(span.i64, rows, n, out);
      break;
    case DataType::kDouble:
      k.gather_f64(span.f64, rows, n, out);
      break;
    default:
      k.gather_b8_f64(span.b8, rows, n, out);
      break;
  }
}

SortKeyCol MakeSortKey(const ColumnSpan& span, SelectionSlice rows,
                       bool desc) {
  SortKeyCol key;
  key.desc = desc;
  if (span.type == DataType::kString) {
    key.is_string = true;
    std::vector<int32_t> ranks = DictionaryRanks(*span.dict);
    key.rank.resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      key.rank[i] = ranks[span.codes[rows[i]]];
    }
  } else {
    key.num.resize(rows.size());
    GatherNumKey(span, rows.data(), rows.size(), key.num.data());
  }
  return key;
}

/// Positions 0..n-1 ordered by the keys; index tiebreak makes the
/// order total, so the result equals a stable sort and partial_sort
/// under LIMIT yields exactly the stable-sorted prefix.
///
/// Single numeric key with a small LIMIT takes a top-N fast path: a
/// k-element heap holds the current best, and the SIMD compare kernel
/// scans the remaining keys in blocks against the heap's worst value,
/// compacting only the (rare) candidates that beat it. Ties with the
/// threshold are skipped soundly because heap indices are always
/// smaller than scanned indices, so an equal-valued candidate loses
/// the index tiebreak anyway. NaN keys disable the path (the
/// threshold compare would mis-prune); `*used_topn` reports the
/// choice for trace annotation.
std::vector<uint32_t> SortPermutation(const std::vector<SortKeyCol>& keys,
                                      size_t n, std::optional<size_t> limit,
                                      bool* used_topn = nullptr) {
  if (used_topn != nullptr) *used_topn = false;
  auto cmp = [&](uint32_t a, uint32_t b) {
    for (const SortKeyCol& k : keys) {
      if (k.is_string) {
        if (k.rank[a] < k.rank[b]) return !k.desc;
        if (k.rank[b] < k.rank[a]) return k.desc;
      } else {
        if (k.num[a] < k.num[b]) return !k.desc;
        if (k.num[b] < k.num[a]) return k.desc;
      }
    }
    return a < b;
  };
  if (limit && *limit > 0 && *limit < n && *limit * 8 <= n &&
      keys.size() == 1 && !keys[0].is_string) {
    const std::vector<double>& num = keys[0].num;
    bool has_nan = false;
    for (size_t i = 0; i < n && !has_nan; ++i) has_nan = std::isnan(num[i]);
    if (!has_nan) {
      const size_t k = *limit;
      // Max-heap under cmp: the front is the worst of the current
      // best-k, and num[front] is the pruning threshold.
      std::vector<uint32_t> heap(k);
      std::iota(heap.begin(), heap.end(), uint32_t{0});
      std::make_heap(heap.begin(), heap.end(), cmp);
      double tau = num[heap.front()];
      const simd::KernelTable& kt = simd::ActiveKernels();
      const simd::CmpOp op =
          keys[0].desc ? simd::CmpOp::kGt : simd::CmpOp::kLt;
      constexpr size_t kBlock = 4096;
      AlignedVector<uint8_t> mask(kBlock);
      AlignedVector<uint32_t> cand(kBlock);
      for (size_t base = k; base < n; base += kBlock) {
        const size_t bn = std::min(kBlock, n - base);
        kt.mask_cmp_f64(num.data() + base, nullptr, bn, op, tau,
                        mask.data());
        const size_t c =
            kt.compact_rows(nullptr, mask.data(), 1, bn, cand.data());
        for (size_t j = 0; j < c; ++j) {
          const uint32_t idx = static_cast<uint32_t>(base + cand[j]);
          // Re-check with the full comparator: tau only tightens
          // within a block, so the mask can be stale-loose but never
          // drops a true member.
          if (cmp(idx, heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), cmp);
            heap.back() = idx;
            std::push_heap(heap.begin(), heap.end(), cmp);
            tau = num[heap.front()];
          }
        }
      }
      std::sort(heap.begin(), heap.end(), cmp);
      if (used_topn != nullptr) *used_topn = true;
      return heap;
    }
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), uint32_t{0});
  if (limit && *limit < n) {
    std::partial_sort(perm.begin(), perm.begin() + *limit, perm.end(), cmp);
    perm.resize(*limit);
  } else {
    std::sort(perm.begin(), perm.end(), cmp);
  }
  return perm;
}

std::optional<size_t> LimitOf(const sql::SelectStmt& stmt) {
  if (!stmt.limit) return std::nullopt;
  if (*stmt.limit < 0) return std::nullopt;  // row oracle: cast never truncates
  return static_cast<size_t>(*stmt.limit);
}

/// ORDER BY + LIMIT over a materialized result table using typed sort
/// keys (and top-N selection instead of full sort when LIMIT is
/// present).
[[nodiscard]] Status SortLimitTable(const sql::SelectStmt& stmt, Table* out,
                      bool* used_topn = nullptr) {
  std::optional<size_t> limit = LimitOf(stmt);
  if (!stmt.order_by.empty()) {
    std::vector<SortKeyCol> keys;
    std::vector<uint32_t> identity(out->num_rows());
    std::iota(identity.begin(), identity.end(), uint32_t{0});
    for (const auto& o : stmt.order_by) {
      auto idx = out->schema().FindColumn(o.column);
      if (!idx) {
        return Status::BindError("ORDER BY column '" + o.column +
                                 "' not in result set");
      }
      keys.push_back(MakeSortKey(ColumnSpan::FromColumn(out->column(*idx)),
                                 identity, o.descending));
    }
    std::vector<uint32_t> perm =
        SortPermutation(keys, out->num_rows(), limit, used_topn);
    std::vector<size_t> order(perm.begin(), perm.end());
    *out = out->Filter(order);
    return Status::OK();
  }
  if (limit && *limit < out->num_rows()) {
    std::vector<size_t> head(*limit);
    std::iota(head.begin(), head.end(), size_t{0});
    *out = out->Filter(head);
  }
  return Status::OK();
}

[[nodiscard]] Result<Column> ColumnFromBatch(BatchVec batch) {
  switch (batch.type) {
    case DataType::kInt64:
      return Column::FromInt64(std::move(batch.i64));
    case DataType::kDouble:
      return Column::FromDouble(std::move(batch.f64));
    case DataType::kBool:
      return Column::FromBool(std::move(batch.b8));
    case DataType::kString: {
      if (batch.dict != nullptr) {
        // Result columns must own a private dictionary: the source
        // dictionary belongs to a live relation and a later ingest
        // would grow it under readers holding this result outside the
        // service lock. Small dictionaries are cloned wholesale (the
        // codes stay valid, no decoding); dictionaries much larger
        // than the result are compacted through decode instead.
        if (batch.dict->size() <= batch.codes.size() + 64) {
          return Column::FromCodes(std::make_shared<Dictionary>(*batch.dict),
                                   std::move(batch.codes));
        }
        Column col(DataType::kString);
        col.Reserve(batch.codes.size());
        for (int32_t code : batch.codes) {
          col.AppendString(batch.dict->Decode(code));
        }
        return col;
      }
      Column col(DataType::kString);
      col.Reserve(batch.strs.size());
      for (const auto& s : batch.strs) col.AppendString(s);
      return col;
    }
    default:
      return Status::Internal("cannot materialize NULL-typed batch");
  }
}

/// True if evaluating the expression can raise a runtime error
/// (division is the only erroring scalar op). Guards LIMIT pushdown:
/// the row oracle evaluates every selected row before truncating, so
/// the batch path may only skip rows whose evaluation cannot error.
bool ContainsDiv(const BoundExpr& e) {
  if (e.kind == BoundExpr::Kind::kBinary &&
      e.binary_op == sql::BinaryOp::kDiv) {
    return true;
  }
  for (const BoundExpr* c :
       {e.child.get(), e.left.get(), e.right.get(), e.between_lo.get(),
        e.between_hi.get()}) {
    if (c != nullptr && ContainsDiv(*c)) return true;
  }
  return false;
}

/// Per-GROUP BY-column dense codes over the selected rows, plus the
/// decode table back to Values.
struct GroupKeyCol {
  DataType type = DataType::kNull;
  std::vector<uint32_t> codes;  // per selected position
  uint64_t card = 1;
  std::vector<int64_t> i64_vals;   // kInt64 decode table
  std::vector<double> f64_vals;    // kDouble decode table
  const Dictionary* dict = nullptr;  // kString decode

  Value Decode(uint64_t code) const {
    switch (type) {
      case DataType::kInt64:
        return Value(i64_vals[code]);
      case DataType::kDouble:
        return Value(f64_vals[code]);
      case DataType::kBool:
        return Value(code != 0);
      case DataType::kString:
        return Value(dict->Decode(static_cast<int32_t>(code)));
      default:
        return Value::Null();
    }
  }
};

/// Open-addressing map from a 64-bit group key to its dense
/// first-seen group id — the probe pass of the two-pass group-id
/// build (the hash pass runs the SIMD hash kernel over key blocks).
/// Linear probing over a power-of-two table; a slot is empty while
/// its gid is kEmpty. Probing serially in selection order assigns
/// gids in exactly the first-seen order the unordered_map paths
/// produced.
///
/// `self_equal` carries NaN semantics for double keys: a NaN key
/// never equals anything (matching unordered_map's operator==), so
/// each NaN probe walks to an empty slot and allocates a fresh group.
class GroupIdIndex {
 public:
  GroupIdIndex() {
    bits_.resize(kInitialCap);
    gids_.assign(kInitialCap, kEmpty);
    mask_ = kInitialCap - 1;
  }

  /// Group id for `key` (its hash precomputed by the hash pass);
  /// `next_gid` is assigned on a miss, and `*inserted` tells the
  /// caller to extend its decode table.
  uint32_t InsertOrGet(uint64_t key, uint64_t hash, bool self_equal,
                       uint32_t next_gid, bool* inserted) {
    if ((filled_ + 1) * 4 > (mask_ + 1) * 3) Grow();
    size_t i = hash & mask_;
    while (true) {
      if (gids_[i] == kEmpty) {
        bits_[i] = key;
        gids_[i] = next_gid;
        ++filled_;
        *inserted = true;
        return next_gid;
      }
      if (self_equal && bits_[i] == key) {
        *inserted = false;
        return gids_[i];
      }
      i = (i + 1) & mask_;
    }
  }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr size_t kInitialCap = 2048;

  void Grow() {
    std::vector<uint64_t> old_bits = std::move(bits_);
    std::vector<uint32_t> old_gids = std::move(gids_);
    const size_t cap = (mask_ + 1) * 2;
    bits_.assign(cap, 0);
    gids_.assign(cap, kEmpty);
    mask_ = cap - 1;
    // Reinsert with the same hash function the SIMD pass uses, so
    // grown tables stay probe-compatible; gids carry over unchanged.
    for (size_t j = 0; j < old_gids.size(); ++j) {
      if (old_gids[j] == kEmpty) continue;
      size_t i = simd::HashU64(old_bits[j]) & mask_;
      while (gids_[i] != kEmpty) i = (i + 1) & mask_;
      bits_[i] = old_bits[j];
      gids_[i] = old_gids[j];
    }
  }

  std::vector<uint64_t> bits_;
  std::vector<uint32_t> gids_;
  size_t mask_ = 0;
  size_t filled_ = 0;
};

/// Block size for the two-pass group-id builds: values/hashes for one
/// block are produced by SIMD kernels, then the probe pass walks them
/// serially (first-seen order is part of the executor's contract).
constexpr size_t kGroupHashBlock = 4096;

/// Dense first-seen ids for `keys[0..n)`, every key below `card`:
/// ids[i] numbers keys[i]'s value in order of first appearance, and
/// first[g] is the position where id g first appears. A flat
/// (direct-indexed) table serves a key space that is small both
/// absolutely and relative to n, so a tiny selection over a huge
/// dictionary does not zero-fill megabytes per query; the two-pass
/// hash index serves the rest. Returns the index mode for the trace.
const char* AssignFirstSeenIds(const uint64_t* keys, size_t n, uint64_t card,
                               uint32_t* ids, std::vector<uint32_t>* first) {
  constexpr uint64_t kDirectTableMax = uint64_t{1} << 20;
  if (card <= kDirectTableMax && card <= std::max<uint64_t>(1024, 4 * n)) {
    std::vector<int32_t> slot(card, -1);
    for (size_t i = 0; i < n; ++i) {
      int32_t& g = slot[keys[i]];
      if (g < 0) {
        g = static_cast<int32_t>(first->size());
        first->push_back(static_cast<uint32_t>(i));
      }
      ids[i] = static_cast<uint32_t>(g);
    }
    return "direct";
  }
  // The SIMD kernel hashes a block of keys, then the probe pass
  // assigns ids serially in selection order.
  AlignedVector<uint64_t> hashes(kGroupHashBlock);
  GroupIdIndex index;
  for (size_t base = 0; base < n; base += kGroupHashBlock) {
    const size_t m = std::min(kGroupHashBlock, n - base);
    simd::ActiveKernels().hash_u64(keys + base, m, hashes.data());
    for (size_t i = 0; i < m; ++i) {
      bool inserted = false;
      ids[base + i] = index.InsertOrGet(
          keys[base + i], hashes[i], /*self_equal=*/true,
          static_cast<uint32_t>(first->size()), &inserted);
      if (inserted) first->push_back(static_cast<uint32_t>(base + i));
    }
  }
  return "two_pass";
}

GroupKeyCol MakeGroupKey(const ColumnSpan& span, SelectionSlice rows) {
  GroupKeyCol key;
  key.type = span.type;
  key.codes.resize(rows.size());
  switch (span.type) {
    case DataType::kString: {
      key.dict = span.dict.get();
      for (size_t i = 0; i < rows.size(); ++i) {
        key.codes[i] = static_cast<uint32_t>(span.codes[rows[i]]);
      }
      key.card = std::max<uint64_t>(1, span.dict->size());
      break;
    }
    case DataType::kBool: {
      for (size_t i = 0; i < rows.size(); ++i) {
        key.codes[i] = span.b8[rows[i]] != 0 ? 1 : 0;
      }
      key.card = 2;
      break;
    }
    case DataType::kInt64:
    case DataType::kDouble: {
      // Key identity goes through double, matching the row oracle's
      // std::map<Value> comparator (Value compares all numerics as
      // doubles, merging int64 keys that collide beyond 2^53). The
      // decode table keeps the first-seen value, which is exactly the
      // key the row oracle's map retains.
      //
      // Two-pass build: gather + hash one block of keys with the SIMD
      // kernels, then probe serially in selection order.
      const bool is_int = span.type == DataType::kInt64;
      const simd::KernelTable& k = simd::ActiveKernels();
      AlignedVector<double> vals(kGroupHashBlock);
      AlignedVector<uint64_t> hashes(kGroupHashBlock);
      GroupIdIndex index;
      for (size_t base = 0; base < rows.size(); base += kGroupHashBlock) {
        const size_t m = std::min(kGroupHashBlock, rows.size() - base);
        if (is_int) {
          k.gather_i64_f64(span.i64, rows.data() + base, m, vals.data());
        } else {
          k.gather_f64(span.f64, rows.data() + base, m, vals.data());
        }
        k.hash_f64(vals.data(), m, hashes.data());
        for (size_t i = 0; i < m; ++i) {
          const double v = vals[i];
          const uint32_t next = static_cast<uint32_t>(
              is_int ? key.i64_vals.size() : key.f64_vals.size());
          bool inserted = false;
          key.codes[base + i] =
              index.InsertOrGet(simd::CanonicalF64Bits(v), hashes[i],
                                !std::isnan(v), next, &inserted);
          if (inserted) {
            if (is_int) {
              key.i64_vals.push_back(span.i64[rows[base + i]]);
            } else {
              key.f64_vals.push_back(v);
            }
          }
        }
      }
      key.card = std::max<uint64_t>(
          1, is_int ? key.i64_vals.size() : key.f64_vals.size());
      break;
    }
    default:
      break;
  }
  return key;
}

/// Double view of a typed aggregate-argument batch, matching what the
/// row oracle obtains via Value::ToDouble (its exact error on string
/// input included). kDouble aliases the batch payload directly;
/// kInt64/kBool widen into `scratch`, which must outlive the view.
[[nodiscard]] Result<const double*> BatchDoubles(const BatchVec& batch,
                                   AlignedVector<double>* scratch) {
  switch (batch.type) {
    case DataType::kInt64:
      scratch->resize(batch.i64.size());
      simd::ActiveKernels().widen_i64_f64(batch.i64.data(), batch.i64.size(),
                                          scratch->data());
      return static_cast<const double*>(scratch->data());
    case DataType::kDouble:
      return batch.f64.data();
    case DataType::kBool:
      scratch->resize(batch.b8.size());
      for (size_t i = 0; i < batch.b8.size(); ++i) {
        (*scratch)[i] = batch.b8[i] != 0 ? 1.0 : 0.0;
      }
      return static_cast<const double*>(scratch->data());
    case DataType::kString: {
      if (batch.size() == 0) {
        scratch->clear();
        return static_cast<const double*>(scratch->data());
      }
      auto err = Value(batch.StringAt(0)).ToDouble();
      return err.status();
    }
    default:
      return Status::Internal("cannot convert batch to doubles");
  }
}

Value BatchValueAt(const BatchVec& batch, size_t i) {
  switch (batch.type) {
    case DataType::kInt64:
      return Value(batch.i64[i]);
    case DataType::kDouble:
      return Value(batch.f64[i]);
    case DataType::kBool:
      return Value(batch.b8[i] != 0);
    case DataType::kString:
      return Value(batch.StringAt(i));
    default:
      return Value::Null();
  }
}

/// Strict `a < b` over batch positions with Value semantics (numeric
/// through double, strings lexicographic).
bool BatchLess(const BatchVec& batch, size_t a, size_t b) {
  switch (batch.type) {
    case DataType::kInt64:
      return static_cast<double>(batch.i64[a]) <
             static_cast<double>(batch.i64[b]);
    case DataType::kDouble:
      return batch.f64[a] < batch.f64[b];
    case DataType::kBool:
      return batch.b8[a] < batch.b8[b];
    case DataType::kString:
      return batch.StringAt(a) < batch.StringAt(b);
    default:
      return false;
  }
}

/// Vectorized SELECT over a view restricted to `sel`.
[[nodiscard]] Result<Table> ExecuteSelectBatch(const TableView& view,
                                 SelectionVector sel,
                                 const sql::SelectStmt& stmt,
                                 const ExecOptions& opts) {
  const Schema& schema = view.schema();
  const bool weighted = !opts.weight_column.empty();
  std::optional<size_t> weight_idx;
  if (weighted) {
    auto idx = schema.FindColumn(opts.weight_column);
    if (!idx) {
      return Status::BindError("weight column '" + opts.weight_column +
                               "' not found");
    }
    weight_idx = *idx;
  }

  // --- WHERE: refine the selection vector ----------------------------------
  if (stmt.where != nullptr) {
    if (stmt.where->ContainsAggregate()) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    trace::ScopedSpan span(opts.trace, opts.trace_parent, "filter");
    const size_t rows_in = sel.size();
    Binder where_binder(&schema);
    MOSAIC_ASSIGN_OR_RETURN(BoundExprPtr pred,
                            where_binder.Bind(*stmt.where));
    if (pred->type != DataType::kBool) {
      return Status::TypeError("WHERE predicate must be boolean, got " +
                               std::string(DataTypeName(pred->type)));
    }
    MOSAIC_ASSIGN_OR_RETURN(sel, FilterView(view, *pred, std::move(sel)));
    if (opts.trace != nullptr) {
      span.Note("rows=" + std::to_string(rows_in) + " kept=" +
                std::to_string(sel.size()) + " isa=" +
                simd::ActiveIsaName());
    }
  }

  bool has_aggregates = false;
  for (const auto& item : stmt.items) {
    if (item.expr->ContainsAggregate()) has_aggregates = true;
  }
  if (stmt.having != nullptr && stmt.having->ContainsAggregate()) {
    has_aggregates = true;
  }
  if (stmt.select_star && (has_aggregates || !stmt.group_by.empty())) {
    return Status::BindError("SELECT * cannot be combined with aggregation");
  }
  if (!stmt.group_by.empty() && !has_aggregates) {
    return Status::BindError("GROUP BY requires aggregates in SELECT list");
  }

  // --- Projection-only path ------------------------------------------------
  if (!has_aggregates) {
    Binder binder(&schema);
    std::vector<BoundExprPtr> bound_items;
    Schema out_schema;
    if (stmt.select_star) {
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        if (weight_idx && c == *weight_idx) continue;  // hide weight
        auto e = std::make_unique<BoundExpr>();
        e->kind = BoundExpr::Kind::kColumnRef;
        e->column_index = c;
        e->type = schema.column(c).type;
        bound_items.push_back(std::move(e));
        MOSAIC_RETURN_IF_ERROR(out_schema.AddColumn(schema.column(c)));
      }
    } else {
      for (const auto& item : stmt.items) {
        MOSAIC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*item.expr));
        MOSAIC_RETURN_IF_ERROR(
            AddOutputColumn(&out_schema, OutputName(item), bound->type));
        bound_items.push_back(std::move(bound));
      }
    }
    std::optional<size_t> limit = LimitOf(stmt);
    bool items_can_error = false;
    for (const auto& item : bound_items) {
      if (ContainsDiv(*item)) items_can_error = true;
    }
    // LIMIT pushdown below the projection is only sound when no item
    // can raise a runtime error on a truncated row.
    const std::optional<size_t> eval_limit =
        items_can_error ? std::nullopt : limit;
    bool presorted = false;
    if (!stmt.order_by.empty()) {
      // Sorting the selection before projection works whenever every
      // ORDER BY key can be read off a source span: either the key
      // names an output column that is a plain column reference (its
      // projected values equal the source values row for row), or it
      // is not in the output at all (only the source has it). Under
      // LIMIT only the prefix is then materialized; the index
      // tiebreak over selection positions reproduces exactly the
      // post-materialize table sort. Computed output columns fall
      // back to sorting the materialized table.
      bool presortable = true;
      std::vector<size_t> order_src;
      order_src.reserve(stmt.order_by.size());
      for (const auto& o : stmt.order_by) {
        auto out_idx = out_schema.FindColumn(o.column);
        if (out_idx) {
          const BoundExpr& item = *bound_items[*out_idx];
          if (item.kind == BoundExpr::Kind::kColumnRef) {
            order_src.push_back(item.column_index);
          } else {
            presortable = false;
            break;
          }
        } else {
          auto idx = schema.FindColumn(o.column);
          if (!idx) {
            return Status::BindError("ORDER BY column '" + o.column +
                                     "' not found");
          }
          order_src.push_back(*idx);
        }
      }
      if (presortable) {
        trace::ScopedSpan span(opts.trace, opts.trace_parent, "sort");
        std::vector<SortKeyCol> keys;
        for (size_t ki = 0; ki < stmt.order_by.size(); ++ki) {
          keys.push_back(MakeSortKey(view.column(order_src[ki]), sel.rows(),
                                     stmt.order_by[ki].descending));
        }
        bool topn = false;
        std::vector<uint32_t> perm =
            SortPermutation(keys, sel.size(), eval_limit, &topn);
        AlignedVector<uint32_t> sorted(perm.size());
        for (size_t i = 0; i < perm.size(); ++i) sorted[i] = sel[perm[i]];
        *sel.mutable_rows() = std::move(sorted);
        presorted = true;
        if (opts.trace != nullptr) {
          span.Note(std::string("sort=") + (topn ? "topn" : "full") +
                    " presort isa=" + simd::ActiveIsaName());
        }
      }
    }
    const bool limit_only = presorted || stmt.order_by.empty();
    if (limit_only && eval_limit && *eval_limit < sel.size()) {
      sel.mutable_rows()->resize(*eval_limit);
    }
    std::vector<Column> columns;
    columns.reserve(bound_items.size());
    {
      trace::ScopedSpan span(opts.trace, opts.trace_parent, "materialize");
      for (const auto& item : bound_items) {
        MOSAIC_ASSIGN_OR_RETURN(BatchVec batch,
                                EvalBatch(*item, view, sel.rows()));
        MOSAIC_ASSIGN_OR_RETURN(Column col,
                                ColumnFromBatch(std::move(batch)));
        columns.push_back(std::move(col));
      }
      if (opts.trace != nullptr) {
        span.Note("rows=" + std::to_string(sel.size()) +
                  " cols=" + std::to_string(columns.size()));
      }
    }
    Table out(out_schema, std::move(columns), sel.size());
    if (limit_only && limit && *limit < out.num_rows()) {
      std::vector<size_t> head(*limit);
      std::iota(head.begin(), head.end(), size_t{0});
      out = out.Filter(head);
    }
    if (!limit_only) {
      trace::ScopedSpan span(opts.trace, opts.trace_parent, "sort");
      bool topn = false;
      MOSAIC_RETURN_IF_ERROR(SortLimitTable(stmt, &out, &topn));
      if (opts.trace != nullptr) {
        span.Note(std::string("sort=") + (topn ? "topn" : "full"));
      }
    }
    return out;
  }

  // --- Aggregation path ----------------------------------------------------
  std::vector<size_t> group_cols;
  for (const auto& name : stmt.group_by) {
    auto idx = schema.FindColumn(name);
    if (!idx) {
      return Status::BindError("GROUP BY column '" + name + "' not found");
    }
    group_cols.push_back(*idx);
  }

  Binder binder(&schema);
  AggCollection aggs;
  aggs.binder = &binder;
  binder.set_aggregate_mapper(&AggCollection::MapAggregateThunk, &aggs);

  std::vector<BoundExprPtr> bound_items;
  for (const auto& item : stmt.items) {
    MOSAIC_RETURN_IF_ERROR(
        ValidateGroupColumnRefs(*item.expr, stmt.group_by));
    MOSAIC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*item.expr));
    bound_items.push_back(std::move(bound));
  }
  BoundExprPtr bound_having;
  if (stmt.having != nullptr) {
    MOSAIC_RETURN_IF_ERROR(
        ValidateGroupColumnRefs(*stmt.having, stmt.group_by));
    MOSAIC_ASSIGN_OR_RETURN(bound_having, binder.Bind(*stmt.having));
    if (bound_having->type != DataType::kBool) {
      return Status::TypeError("HAVING predicate must be boolean");
    }
  }

  const size_t n = sel.size();

  // Covers group-key building, accumulation, and emit; the phases
  // inside are recorded retroactively (AddTimed) so the early
  // returns (bind errors) need no unwind hooks.
  trace::ScopedSpan agg_span(opts.trace, opts.trace_parent, "aggregate");
  uint64_t phase_t0 = opts.trace != nullptr ? opts.trace->NowUs() : 0;

  // --- Group ids: per-column dense codes packed into a uint64 key ----------
  std::vector<uint32_t> gid(n, 0);
  // Selection position of each group's first row; its key is decoded
  // from the key-column codes there.
  std::vector<uint32_t> group_first;
  std::vector<GroupKeyCol> key_cols;
  const char* idx_mode = "global";
  if (group_cols.empty()) {
    // Global aggregate: one group, even over zero rows.
    group_first.push_back(0);
  } else {
    key_cols.reserve(group_cols.size());
    // Mixed-radix packing through the mul-add kernel. Before
    // a multiply would take the code space past 2^62, the packed
    // prefix is densified into first-seen ids; those, like every
    // column code, stay below 2^32, so the product never wraps and
    // any number of key columns packs into one uint64 key. Packing
    // is injective either way, so the groups and their first-seen
    // order do not depend on where densification happened.
    const simd::KernelTable& k = simd::ActiveKernels();
    AlignedVector<uint64_t> packed(n);  // zeros: the empty prefix
    uint64_t code_space = 1;
    for (size_t c : group_cols) {
      key_cols.push_back(MakeGroupKey(view.column(c), sel.rows()));
      const GroupKeyCol& key = key_cols.back();
      if (static_cast<unsigned __int128>(code_space) * key.card >
          (static_cast<unsigned __int128>(1) << 62)) {
        std::vector<uint32_t> prefix_first;
        AssignFirstSeenIds(packed.data(), n, code_space, gid.data(),
                           &prefix_first);
        k.widen_u32_u64(gid.data(), n, packed.data());
        code_space = std::max<uint64_t>(1, prefix_first.size());
      }
      k.pack_mul_add(packed.data(), key.codes.data(), key.card, n);
      code_space *= key.card;
    }
    idx_mode = AssignFirstSeenIds(packed.data(), n, code_space, gid.data(),
                                  &group_first);
  }
  const size_t num_groups = group_first.size();
  if (opts.trace != nullptr) {
    opts.trace->AddTimed(agg_span.id(), "group_keys", phase_t0,
                         opts.trace->NowUs());
    agg_span.Note("rows=" + std::to_string(n) +
                  " groups=" + std::to_string(num_groups) + " idx=" +
                  idx_mode + " isa=" + simd::ActiveIsaName());
    phase_t0 = opts.trace->NowUs();
  }

  // --- Accumulate: tight loops over the selection --------------------------
  //
  // Floating-point sums reduce serially in selection order, the order
  // the row oracle uses, so both round identically.
  std::vector<double> w;
  if (weighted) {
    const ColumnSpan& wspan = view.column(*weight_idx);
    const AlignedVector<uint32_t>& rows = sel.rows();
    w.resize(n);
    if (wspan.type == DataType::kDouble) {
      // The managed weight column is always a double span.
      simd::ActiveKernels().gather_f64(wspan.f64, rows.data(), n, w.data());
    } else {
      for (size_t i = 0; i < n; ++i) {
        MOSAIC_ASSIGN_OR_RETURN(w[i], wspan.GetDouble(rows[i]));
      }
    }
  }
  // sum_w / count are identical across specs (accumulated in the same
  // row order), so compute them once.
  std::vector<double> sum_w(num_groups, 0.0);
  std::vector<int64_t> count_n(num_groups, 0);
  for (size_t i = 0; i < n; ++i) count_n[gid[i]] += 1;
  if (weighted) {
    for (size_t i = 0; i < n; ++i) sum_w[gid[i]] += w[i];
  } else {
    // Sequentially accumulating 1.0 per row yields exactly the
    // integer count (counts are far below 2^53), so the exact counts
    // reproduce the unweighted sum bit for bit.
    for (size_t g = 0; g < num_groups; ++g) {
      sum_w[g] = static_cast<double>(count_n[g]);
    }
  }

  const size_t num_specs = aggs.specs.size();
  std::vector<std::vector<double>> sum_wx(num_specs);
  std::vector<std::vector<int64_t>> min_pos(num_specs);
  std::vector<std::vector<int64_t>> max_pos(num_specs);
  std::vector<BatchVec> arg_batches(num_specs);
  for (size_t a = 0; a < num_specs; ++a) {
    const AggSpec& spec = aggs.specs[a];
    if (spec.is_star || spec.arg == nullptr) continue;
    MOSAIC_ASSIGN_OR_RETURN(arg_batches[a],
                            EvalBatch(*spec.arg, view, sel.rows()));
    if (spec.func == sql::AggFunc::kSum || spec.func == sql::AggFunc::kAvg) {
      AlignedVector<double> x_scratch;
      MOSAIC_ASSIGN_OR_RETURN(const double* x,
                              BatchDoubles(arg_batches[a], &x_scratch));
      auto& acc = sum_wx[a];
      acc.assign(num_groups, 0.0);
      if (weighted) {
        for (size_t i = 0; i < n; ++i) acc[gid[i]] += w[i] * x[i];
      } else {
        for (size_t i = 0; i < n; ++i) acc[gid[i]] += x[i];
      }
    }
    if (spec.func == sql::AggFunc::kMin ||
        spec.func == sql::AggFunc::kMax) {
      const BatchVec& batch = arg_batches[a];
      auto& mins = min_pos[a];
      auto& maxs = max_pos[a];
      mins.assign(num_groups, -1);
      maxs.assign(num_groups, -1);
      for (size_t i = 0; i < n; ++i) {
        int64_t& mn = mins[gid[i]];
        int64_t& mx = maxs[gid[i]];
        if (mn < 0 || BatchLess(batch, i, static_cast<size_t>(mn))) {
          mn = static_cast<int64_t>(i);
        }
        if (mx < 0 || BatchLess(batch, static_cast<size_t>(mx), i)) {
          mx = static_cast<int64_t>(i);
        }
      }
    }
  }

  if (opts.trace != nullptr) {
    opts.trace->AddTimed(agg_span.id(), "accumulate", phase_t0,
                         opts.trace->NowUs());
    phase_t0 = opts.trace->NowUs();
  }

  // --- Finalize into sorted groups and emit --------------------------------
  SortedGroups sorted_groups;
  sorted_groups.reserve(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    std::vector<Value> key;
    if (!key_cols.empty()) {
      key.reserve(key_cols.size());
      for (const GroupKeyCol& col : key_cols) {
        key.push_back(col.Decode(col.codes[group_first[g]]));
      }
    }
    std::vector<AggAccum> accs(num_specs);
    for (size_t a = 0; a < num_specs; ++a) {
      AggAccum& acc = accs[a];
      acc.sum_w = sum_w[g];
      acc.count_n = count_n[g];
      if (!sum_wx[a].empty()) acc.sum_wx = sum_wx[a][g];
      if (!min_pos[a].empty() && min_pos[a][g] >= 0) {
        acc.any = true;
        acc.vmin = BatchValueAt(arg_batches[a],
                                static_cast<size_t>(min_pos[a][g]));
        acc.vmax = BatchValueAt(arg_batches[a],
                                static_cast<size_t>(max_pos[a][g]));
      }
    }
    sorted_groups.emplace_back(std::move(key), std::move(accs));
  }
  // The row oracle's std::map emits groups in sorted key order.
  std::sort(sorted_groups.begin(), sorted_groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  MOSAIC_ASSIGN_OR_RETURN(
      Table out, EmitGroups(schema, stmt, bound_items, bound_having.get(),
                            aggs.specs, group_cols, sorted_groups, weighted));
  MOSAIC_RETURN_IF_ERROR(SortLimitTable(stmt, &out));
  if (opts.trace != nullptr) {
    opts.trace->AddTimed(agg_span.id(), "emit", phase_t0,
                         opts.trace->NowUs());
  }
  return out;
}

}  // namespace

[[nodiscard]] Result<double> TotalWeight(const Table& table,
                           const std::string& weight_column) {
  if (weight_column.empty()) {
    return static_cast<double>(table.num_rows());
  }
  MOSAIC_ASSIGN_OR_RETURN(const Column* col,
                          table.ColumnByName(weight_column));
  double total = 0.0;
  for (size_t r = 0; r < col->size(); ++r) {
    MOSAIC_ASSIGN_OR_RETURN(double w, col->GetDouble(r));
    total += w;
  }
  return total;
}

[[nodiscard]] Result<Table> ExecuteSelect(const Table& source, const sql::SelectStmt& stmt,
                            const ExecOptions& opts) {
  return ExecuteSelect(TableView(source),
                       SelectionVector::All(source.num_rows()), stmt, opts);
}

[[nodiscard]] Result<Table> ExecuteSelect(const TableView& view, SelectionVector sel,
                            const sql::SelectStmt& stmt,
                            const ExecOptions& opts) {
  const uint64_t rows_in = sel.size();
  MOSAIC_ASSIGN_OR_RETURN(Table out,
                          ExecuteSelectBatch(view, std::move(sel), stmt, opts));
  if (opts.trace != nullptr) {
    trace::CountRowsScanned(opts.trace, rows_in);
    trace::CountRowsProduced(opts.trace, out.num_rows());
  }
  return out;
}

}  // namespace exec
}  // namespace mosaic
