// Table printer shared by the benchmark harnesses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace trail::sim {

/// Fixed-width table printer for bench harnesses that mirror the paper's
/// tables/figures. Columns are right-aligned; the first column is left-
/// aligned (row label).
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Render to stdout with a separator under the header.
  void print() const;

  static std::string fmt(double v, int precision = 2);
  static std::string fmt_int(std::int64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace trail::sim
