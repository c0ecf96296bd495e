#include "common/csv.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace auctionride {

StatusOr<CsvWriter> CsvWriter::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  return CsvWriter(file);
}

CsvWriter::~CsvWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void CsvWriter::WriteRow(const std::vector<std::string>& cells) {
  ARIDE_ACHECK(file_ != nullptr) << "writer already closed";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ARIDE_DCHECK(cells[i].find(',') == std::string::npos);
    std::fputs(cells[i].c_str(), file_);
    std::fputc(i + 1 < cells.size() ? ',' : '\n', file_);
  }
  if (cells.empty()) std::fputc('\n', file_);
}

Status CsvWriter::Close() {
  ARIDE_ACHECK(file_ != nullptr) << "writer already closed";
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::Internal("fclose failed");
  return Status::Ok();
}

StatusOr<std::vector<std::vector<std::string>>> ReadCsv(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  int c;
  bool line_has_content = false;
  while ((c = std::fgetc(file)) != EOF) {
    if (c == ',') {
      row.push_back(cell);
      cell.clear();
      line_has_content = true;
    } else if (c == '\n') {
      if (line_has_content || !cell.empty()) {
        row.push_back(cell);
        rows.push_back(row);
      }
      row.clear();
      cell.clear();
      line_has_content = false;
    } else if (c != '\r') {
      cell += static_cast<char>(c);
    }
  }
  if (line_has_content || !cell.empty()) {
    row.push_back(cell);
    rows.push_back(row);
  }
  std::fclose(file);
  return rows;
}

Status ParseFiniteDouble(const std::string& s, const std::string& line,
                         const char* field, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument(line + ": " + field + " '" + s +
                                   "' is not a number");
  }
  if (!std::isfinite(*out)) {
    return Status::InvalidArgument(line + ": " + field + " '" + s +
                                   "' must be finite");
  }
  return Status::Ok();
}

}  // namespace auctionride
