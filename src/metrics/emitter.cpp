#include "metrics/emitter.hpp"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/check.hpp"

namespace ltnc::metrics {
namespace {

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void write_csv_string(std::ostream& out, const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) {
    out << s;
    return;
  }
  // RFC 4180: wrap in quotes, double any embedded quote.
  out << '"';
  for (const char c : s) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

enum class Format { kJson, kCsv };

void write_value(std::ostream& out, const RunRecord::Value& value,
                 Format format) {
  if (const auto* u = std::get_if<std::uint64_t>(&value)) {
    out << *u;
  } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
    out << *i;
  } else if (const auto* d = std::get_if<double>(&value)) {
    write_double(out, *d);
  } else if (const auto* b = std::get_if<bool>(&value)) {
    out << (*b ? "true" : "false");
  } else if (format == Format::kCsv) {
    write_csv_string(out, std::get<std::string>(value));
  } else {
    write_json_string(out, std::get<std::string>(value));
  }
}

/// A table cell: strings verbatim, doubles in their shortest round-trip
/// form (a terminal view, not a baseline).
std::string table_cell(const RunRecord::Value& value) {
  if (const auto* s = std::get_if<std::string>(&value)) return *s;
  if (const auto* d = std::get_if<double>(&value)) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, *d);
    return std::string(buf, res.ptr);
  }
  std::ostringstream out;
  write_value(out, value, Format::kCsv);
  return out.str();
}

/// The first record's fields are the layout; every record must match it.
const std::vector<RunRecord::Field>& shared_layout(
    const std::vector<RunRecord>& records) {
  const auto& header = records.front().fields();
  for (const RunRecord& record : records) {
    const auto& fields = record.fields();
    LTNC_CHECK_MSG(fields.size() == header.size(),
                   "records must share one field layout");
    for (std::size_t f = 0; f < fields.size(); ++f) {
      LTNC_CHECK_MSG(fields[f].key == header[f].key,
                     "records must share one field layout");
    }
  }
  return header;
}

void print_box(std::ostream& out, const std::vector<std::string>& header,
               const std::vector<std::vector<std::string>>& rows) {
  LTNC_CHECK_MSG(!header.empty(), "a table needs at least one column");
  std::vector<std::size_t> width(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) width[c] = header[c].size();
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto rule = [&] {
    out << '+';
    for (const std::size_t w : width) out << std::string(w + 2, '-') << '+';
    out << '\n';
  };
  auto line = [&](const std::vector<std::string>& cells) {
    out << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << ' ' << std::setw(static_cast<int>(width[c])) << cells[c] << " |";
    }
    out << '\n';
  };
  const auto flags = out.flags();
  out << std::left;
  rule();
  line(header);
  rule();
  out << std::right;
  for (const auto& row : rows) line(row);
  rule();
  out.flags(flags);
}

}  // namespace

RunRecord::RunRecord(std::initializer_list<Field> fields) {
  for (const Field& f : fields) set(f.key, f.value);
}

void RunRecord::set(std::string_view key, Value value) {
  for (Field& f : fields_) {
    if (f.key == key) {
      f.value = std::move(value);
      return;
    }
  }
  fields_.push_back(Field{std::string(key), std::move(value)});
}

bool RunRecord::has(std::string_view key) const {
  for (const Field& f : fields_) {
    if (f.key == key) return true;
  }
  return false;
}

const RunRecord::Value& RunRecord::at(std::string_view key) const {
  for (const Field& f : fields_) {
    if (f.key == key) return f.value;
  }
  LTNC_CHECK_MSG(false, "RunRecord field not found");
  return fields_.front().value;  // unreachable
}

std::string fixed(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

void write_double(std::ostream& out, double value) {
  std::ostringstream tmp;  // fixed precision, independent of `out` state
  tmp << std::setprecision(std::numeric_limits<double>::max_digits10)
      << value;
  out << tmp.str();
}

std::string json_object(const RunRecord& record) {
  std::ostringstream out;
  out << '{';
  const auto& fields = record.fields();
  for (std::size_t f = 0; f < fields.size(); ++f) {
    if (f != 0) out << ", ";
    write_json_string(out, fields[f].key);
    out << ": ";
    write_value(out, fields[f].value, Format::kJson);
  }
  out << '}';
  return out.str();
}

void write_json(std::ostream& out, const std::vector<RunRecord>& records) {
  std::vector<std::string> objects;
  objects.reserve(records.size());
  for (const RunRecord& record : records) {
    objects.push_back(json_object(record));
  }
  write_json_objects(out, objects);
}

void write_json_objects(std::ostream& out,
                        const std::vector<std::string>& objects) {
  out << "[\n";
  for (std::size_t i = 0; i < objects.size(); ++i) {
    out << "  " << objects[i] << (i + 1 < objects.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

void write_csv(std::ostream& out, const std::vector<RunRecord>& records) {
  if (records.empty()) return;
  const auto& header = shared_layout(records);
  for (std::size_t f = 0; f < header.size(); ++f) {
    if (f != 0) out << ',';
    write_csv_string(out, header[f].key);
  }
  out << '\n';
  for (const RunRecord& record : records) {
    const auto& fields = record.fields();
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (f != 0) out << ',';
      write_value(out, fields[f].value, Format::kCsv);
    }
    out << '\n';
  }
}

void write_table(std::ostream& out, const std::vector<RunRecord>& records) {
  if (records.empty()) return;
  std::vector<std::string> header;
  for (const auto& field : shared_layout(records)) header.push_back(field.key);
  std::vector<std::vector<std::string>> rows;
  for (const RunRecord& record : records) {
    std::vector<std::string>& row = rows.emplace_back();
    for (const auto& field : record.fields()) {
      row.push_back(table_cell(field.value));
    }
  }
  print_box(out, header, rows);
}

void write_table(std::ostream& out, const RunRecord& record) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& field : record.fields()) {
    rows.push_back({field.key, table_cell(field.value)});
  }
  print_box(out, {"key", "value"}, rows);
}

}  // namespace ltnc::metrics
