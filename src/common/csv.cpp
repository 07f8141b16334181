#include "common/csv.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace bofl {

CsvWriter::CsvWriter(const std::string& path,
                     std::vector<std::string> header)
    : out_(path), columns_(header.size()) {
  BOFL_REQUIRE(!header.empty(), "CSV header cannot be empty");
  BOFL_REQUIRE(out_.is_open(), "cannot open CSV file: " + path);
  write_raw(header);
  rows_ = 0;  // the header does not count as a data row
}

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) {
    return cell;
  }
  std::string quoted = "\"";
  for (const char c : cell) {
    if (c == '"') {
      quoted += "\"\"";
    } else {
      quoted += c;
    }
  }
  quoted += '"';
  return quoted;
}

void CsvWriter::write_raw(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) {
      out_ << ',';
    }
    out_ << escape(cells[i]);
  }
  out_ << '\n';
  ++rows_;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  BOFL_REQUIRE(cells.size() == columns_,
               "CSV row width must match the header");
  write_raw(cells);
}

void CsvWriter::write_row(const std::vector<double>& cells) {
  std::vector<std::string> text;
  text.reserve(cells.size());
  for (const double v : cells) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    text.emplace_back(buffer);
  }
  write_row(text);
}

}  // namespace bofl
