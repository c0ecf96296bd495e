// Minimal CSV reading/writing used for road-network persistence and
// experiment logs. No quoting support — fields must not contain commas or
// newlines, which all our numeric exports satisfy.

#ifndef AUCTIONRIDE_COMMON_CSV_H_
#define AUCTIONRIDE_COMMON_CSV_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"

namespace auctionride {

class CsvWriter {
 public:
  /// Opens `path` for writing (truncating); check Open()'s status before
  /// writing rows.
  static StatusOr<CsvWriter> Open(const std::string& path);

  CsvWriter(CsvWriter&& other) noexcept : file_(other.file_) {
    other.file_ = nullptr;
  }
  CsvWriter& operator=(CsvWriter&& other) noexcept {
    if (this != &other) {
      if (file_ != nullptr) std::fclose(file_);
      file_ = other.file_;
      other.file_ = nullptr;
    }
    return *this;
  }
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;
  ~CsvWriter();

  void WriteRow(const std::vector<std::string>& cells);

  /// Flushes and closes; returns a Status for the final write. Safe to call
  /// once; the destructor closes silently otherwise.
  Status Close();

 private:
  explicit CsvWriter(std::FILE* file) : file_(file) {}
  std::FILE* file_ = nullptr;
};

/// Reads the whole file into rows of cells. Empty lines are skipped.
StatusOr<std::vector<std::vector<std::string>>> ReadCsv(
    const std::string& path);

/// Parses cell `s` as a finite double into *out. strtod happily accepts
/// "nan"/"inf", and one NaN or infinity in a loaded file silently poisons
/// every downstream comparison, so both are rejected at the boundary. The
/// InvalidArgument message names `line` (e.g. "row 3") and `field`.
Status ParseFiniteDouble(const std::string& s, const std::string& line,
                         const char* field, double* out);

}  // namespace auctionride

#endif  // AUCTIONRIDE_COMMON_CSV_H_
