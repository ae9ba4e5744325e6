#include "qbarren/common/table.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "qbarren/common/error.hpp"

namespace qbarren {

std::string format_fixed(double value, int precision) {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(precision);
  oss << value;
  return oss.str();
}

std::string format_sci(double value, int precision) {
  std::ostringstream oss;
  oss.setf(std::ios::scientific);
  oss.precision(precision);
  oss << value;
  return oss.str();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  QBARREN_REQUIRE(!headers_.empty(), "Table: need at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  QBARREN_REQUIRE(cells.size() == headers_.size(),
                  "Table::add_row: cell count does not match column count");
  QBARREN_REQUIRE(!row_open_, "Table::add_row: a begin_row() row is open");
  rows_.push_back(std::move(cells));
}

void Table::begin_row() {
  QBARREN_REQUIRE(!row_open_, "Table::begin_row: previous row not finished");
  pending_.clear();
  row_open_ = true;
}

void Table::finish_pending_row_if_full() {
  if (row_open_ && pending_.size() == headers_.size()) {
    rows_.push_back(std::move(pending_));
    pending_ = {};
    row_open_ = false;
  }
}

void Table::push(std::string cell) {
  QBARREN_REQUIRE(row_open_, "Table::push: call begin_row() first");
  QBARREN_REQUIRE(pending_.size() < headers_.size(),
                  "Table::push: row already full");
  pending_.push_back(std::move(cell));
  finish_pending_row_if_full();
}

void Table::push(double value, int precision) {
  push(format_fixed(value, precision));
}

void Table::push(std::size_t value) { push(std::to_string(value)); }

void Table::push_sci(double value, int precision) {
  push(format_sci(value, precision));
}

std::string Table::to_ascii() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto emit_row = [&](std::ostringstream& oss,
                      const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      oss << (c == 0 ? "| " : " | ");
      oss << cells[c];
      oss << std::string(widths[c] - cells[c].size(), ' ');
    }
    oss << " |\n";
  };

  std::ostringstream oss;
  emit_row(oss, headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    oss << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
  }
  oss << "-|\n";
  for (const auto& row : rows_) {
    emit_row(oss, row);
  }
  return oss.str();
}

namespace {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) {
    return cell;
  }
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') {
      out += "\"\"";
    } else {
      out += ch;
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::string Table::to_csv() const {
  std::ostringstream oss;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c != 0) oss << ',';
    oss << csv_escape(headers_[c]);
  }
  oss << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) oss << ',';
      oss << csv_escape(row[c]);
    }
    oss << '\n';
  }
  return oss.str();
}

std::string Table::to_markdown() const {
  std::ostringstream oss;
  oss << '|';
  for (const auto& h : headers_) {
    oss << ' ' << h << " |";
  }
  oss << "\n|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    oss << "---|";
  }
  oss << '\n';
  for (const auto& row : rows_) {
    oss << '|';
    for (const auto& cell : row) {
      oss << ' ' << cell << " |";
    }
    oss << '\n';
  }
  return oss.str();
}

void Table::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw Error("Table::write_csv: cannot open " + path);
  }
  out << to_csv();
  if (!out) {
    throw Error("Table::write_csv: write failed for " + path);
  }
}

}  // namespace qbarren
