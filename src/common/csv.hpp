// Minimal CSV writing (RFC-4180-style quoting) for exporting benchmark
// series and traces to plotting tools.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace bofl {

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  /// Throws std::invalid_argument if the file cannot be opened or the
  /// header is empty.
  CsvWriter(const std::string& path, std::vector<std::string> header);

  /// Write one row; must have exactly as many cells as the header.
  void write_row(const std::vector<std::string>& cells);

  /// Convenience: numeric row (formatted with %.17g).
  void write_row(const std::vector<double>& cells);

  [[nodiscard]] std::size_t rows_written() const { return rows_; }
  [[nodiscard]] std::size_t num_columns() const { return columns_; }

  /// Quote a cell per RFC 4180: wrap in double quotes when it contains a
  /// comma, quote, or newline; double any embedded quotes.
  [[nodiscard]] static std::string escape(const std::string& cell);

 private:
  void write_raw(const std::vector<std::string>& cells);

  std::ofstream out_;
  std::size_t columns_;
  std::size_t rows_ = 0;
};

}  // namespace bofl
