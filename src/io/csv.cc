#include "io/csv.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

namespace convoy {

namespace {

// Splits a CSV line into at most 4 fields; returns false on field count
// mismatch. No quoting support — trajectory rows are purely numeric.
bool SplitFields(std::string_view line, std::string_view fields[4]) {
  size_t field = 0;
  size_t start = 0;
  for (size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ',') {
      if (field >= 4) return false;
      fields[field++] = line.substr(start, i - start);
      start = i + 1;
    }
  }
  return field == 4;
}

bool ParseDouble(std::string_view s, double* out) {
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseInt(std::string_view s, int64_t* out) {
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

void Reject(CsvLoadResult* result, size_t line_number, std::string reason) {
  ++result->lines_skipped;
  if (result->diagnostics.size() < CsvLoadResult::kMaxDiagnostics) {
    result->diagnostics.push_back(
        CsvLineDiagnostic{line_number, std::move(reason)});
  }
}

// The parse-and-filter loop: every accepted row is appended to its
// object's samples in `rows`.
void ParseCsvRows(std::istream& in, CsvLoadResult* result,
                  std::map<ObjectId, std::vector<TimedPoint>>* rows) {
  std::string line;
  size_t line_number = 0;
  bool first_line = true;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view view = Trim(line);
    if (view.empty()) continue;
    std::string_view fields[4];
    int64_t id = 0;
    if (!SplitFields(view, fields) || !ParseInt(Trim(fields[0]), &id)) {
      if (first_line) {
        first_line = false;  // header
        continue;
      }
      Reject(result, line_number,
             "expected `object_id,tick,x,y` with a numeric object_id");
      continue;
    }
    first_line = false;
    int64_t tick = 0;
    double x = 0.0;
    double y = 0.0;
    if (id < 0) {
      Reject(result, line_number, "negative object_id");
      continue;
    }
    if (!ParseInt(Trim(fields[1]), &tick)) {
      Reject(result, line_number, "unparsable tick");
      continue;
    }
    if (!ParseDouble(Trim(fields[2]), &x) ||
        !ParseDouble(Trim(fields[3]), &y)) {
      Reject(result, line_number, "unparsable coordinate");
      continue;
    }
    // from_chars happily parses "nan" and "inf"; a single NaN coordinate
    // poisons every distance comparison DBSCAN makes downstream, so
    // non-finite rows are data errors, not data.
    if (!std::isfinite(x) || !std::isfinite(y)) {
      Reject(result, line_number, "non-finite coordinate");
      continue;
    }
    (*rows)[static_cast<ObjectId>(id)].emplace_back(x, y,
                                                    static_cast<Tick>(tick));
    ++result->lines_parsed;
  }
}

}  // namespace

CsvLoadResult LoadTrajectoriesCsv(std::istream& in) {
  CsvLoadResult result;
  std::map<ObjectId, std::vector<TimedPoint>> rows;
  ParseCsvRows(in, &result, &rows);

  for (auto& [id, samples] : rows) {
    // Trajectory's constructor collapses repeated (id, tick) rows to their
    // last occurrence; the size difference makes the collapse *counted*
    // and reportable instead of silent.
    const size_t raw_samples = samples.size();
    Trajectory traj(id, std::move(samples));
    result.duplicates_collapsed += raw_samples - traj.Size();
    result.db.Add(std::move(traj));
  }
  result.ok = true;
  return result;
}

CsvLoadResult LoadTrajectoriesCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    CsvLoadResult result;
    result.error = "cannot open " + path;
    return result;
  }
  return LoadTrajectoriesCsv(in);
}

void SaveTrajectoriesCsv(const TrajectoryDatabase& db, std::ostream& out) {
  // Round-trip-exact doubles: discovery results must not depend on whether
  // the data took a detour through a file.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "object_id,tick,x,y\n";
  for (const Trajectory& traj : db.trajectories()) {
    for (const TimedPoint& p : traj.samples()) {
      out << traj.id() << "," << p.t << "," << p.pos.x << "," << p.pos.y
          << "\n";
    }
  }
}

bool SaveTrajectoriesCsv(const TrajectoryDatabase& db,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  SaveTrajectoriesCsv(db, out);
  return out.good();
}

}  // namespace convoy
