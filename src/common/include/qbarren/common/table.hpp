// Tabular result rendering.
//
// Experiment harnesses build a `Table` and render it as aligned ASCII (for
// terminals / bench logs), CSV (for plotting scripts), or Markdown (for
// EXPERIMENTS.md). Cells are stored as strings; numeric helpers format with
// a configurable precision.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace qbarren {

class Table {
 public:
  /// Creates a table with the given column headers (at least one).
  explicit Table(std::vector<std::string> headers);

  /// Number of columns.
  [[nodiscard]] std::size_t columns() const noexcept {
    return headers_.size();
  }

  /// Number of data rows.
  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Appends a fully-formed row; must match the column count.
  void add_row(std::vector<std::string> cells);

  /// Row-building helper: begin a new row, then push cells one by one.
  void begin_row();
  void push(std::string cell);
  void push(double value, int precision = 6);
  void push(std::size_t value);
  /// Scientific notation, e.g. for variances spanning many decades.
  void push_sci(double value, int precision = 3);

  /// Renders with aligned columns and a header separator.
  [[nodiscard]] std::string to_ascii() const;

  /// Renders as RFC-4180-ish CSV (quotes cells containing separators).
  [[nodiscard]] std::string to_csv() const;

  /// Renders as a GitHub-flavored Markdown table.
  [[nodiscard]] std::string to_markdown() const;

  /// Writes the CSV rendering to a file; throws qbarren::Error on I/O
  /// failure.
  void write_csv(const std::string& path) const;

  [[nodiscard]] const std::vector<std::string>& headers() const noexcept {
    return headers_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& data()
      const noexcept {
    return rows_;
  }

 private:
  void finish_pending_row_if_full();

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> pending_;
  bool row_open_ = false;
};

/// Formats a double with fixed precision (helper shared with Table::push).
[[nodiscard]] std::string format_fixed(double value, int precision);

/// Formats a double in scientific notation.
[[nodiscard]] std::string format_sci(double value, int precision);

}  // namespace qbarren
