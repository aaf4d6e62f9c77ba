// Structured per-run metrics records and the one writer for them.
//
// Every bench and example result is a RunRecord: a flat, ordered list of
// typed fields — insertion order is presentation order, so emitted files
// diff cleanly run-over-run. A list of records with identical field
// layouts becomes a JSON array of objects (machine-diffable,
// bench/diff_bench.py's input), a CSV table with a header row
// (spreadsheet/pandas fodder) or a boxed text table (the figure benches'
// terminal view). All three render the same keys in the same order.
//
// The mappings from a subsystem's result onto a record live beside that
// result (dissem::sim_run_record, stream::stream_run_record,
// cache::cache_run_record); drivers append their own columns after it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ltnc::metrics {

class RunRecord {
 public:
  using Value = std::variant<std::uint64_t, std::int64_t, double, bool,
                             std::string>;
  struct Field {
    std::string key;
    Value value;
  };

  RunRecord() = default;
  /// The fields in order, each through set().
  RunRecord(std::initializer_list<Field> fields);

  /// Appends (or overwrites, keeping position) a field.
  void set(std::string_view key, Value value);
  bool has(std::string_view key) const;
  const Value& at(std::string_view key) const;  ///< throws if absent
  const std::vector<Field>& fields() const { return fields_; }

 private:
  std::vector<Field> fields_;
};

/// `value` in fixed notation with `precision` decimals — the preformatted
/// string cell a figure table shows.
std::string fixed(double value, int precision);

/// A double with max_digits10 precision, so it round-trips — the number
/// format of the JSON and CSV writers.
void write_double(std::ostream& out, double value);

/// One record as a single-line JSON object; stable key order, doubles
/// round-trip, strings escaped.
std::string json_object(const RunRecord& record);

/// JSON array of objects, one per record, one object per line.
void write_json(std::ostream& out, const std::vector<RunRecord>& records);

/// write_json's array layout over objects already rendered by
/// json_object (e.g. read back from a child process).
void write_json_objects(std::ostream& out,
                        const std::vector<std::string>& objects);

/// CSV (RFC 4180) with a header row taken from the first record. All
/// records must share the first record's field layout (checked).
void write_csv(std::ostream& out, const std::vector<RunRecord>& records);

/// Boxed, aligned text table: a header row of keys (left-aligned), then
/// one right-aligned row per record. Same layout rule as write_csv; the
/// first record must have at least one field.
void write_table(std::ostream& out, const std::vector<RunRecord>& records);

/// A single record as a two-column `key | value` table.
void write_table(std::ostream& out, const RunRecord& record);

}  // namespace ltnc::metrics
