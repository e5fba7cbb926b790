// Small string utilities used by the config parsers and report printers.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mpa {

/// Splitters. The returned views alias `s`, so the backing buffer must
/// outlive them; copy a piece into a std::string only to keep it.
///
/// Split `s` on `sep`, keeping empty fields.
std::vector<std::string_view> split_views(std::string_view s, char sep);
/// Split `s` into lines, accepting both LF and CRLF endings: splits on
/// '\n' and strips one trailing '\r' per line, so Windows-authored
/// files parse identically to Unix ones.
std::vector<std::string_view> split_line_views(std::string_view s);
/// Split `s` on runs of whitespace, dropping empty tokens.
std::vector<std::string_view> split_ws_views(std::string_view s);

/// Strip leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// Join `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Number of leading space characters (tabs count as one).
std::size_t indent_of(std::string_view line);

/// Format a double with `digits` significant decimal places, trimming
/// trailing zeros ("1.25", "3", "0.0001").
std::string format_double(double v, int digits = 4);

/// Scientific notation like the paper's tables: "6.80e-13".
std::string format_sci(double v, int digits = 2);

/// `text` streamed as one RFC 4180 CSV field: unchanged, or in double
/// quotes with inner quotes doubled when it holds ',', '"', CR or LF.
/// Used like std::quoted: `os << csv_field(name) << ','`.
struct CsvField {
  std::string_view text;
};
inline CsvField csv_field(std::string_view text) {
  return {text};
}
std::ostream& operator<<(std::ostream& os, CsvField field);

/// Reads RFC 4180 CSV records one at a time. A quoted field may hold
/// commas, doubled quotes and line breaks. A record ends at LF, a CR
/// before it is dropped, and blank records are skipped. `text` must
/// outlive the reader.
class CsvReader {
 public:
  explicit CsvReader(std::string_view text) : text_(text) {}

  /// Replace `row` with the next record's fields, reusing its strings;
  /// false at end of input. Throws DataError on an unterminated quoted
  /// field.
  bool next(std::vector<std::string>& row);

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace mpa
