#ifndef CONVOY_IO_CSV_H_
#define CONVOY_IO_CSV_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "traj/database.h"

namespace convoy {

/// One rejected CSV line: its 1-based line number and why it was skipped.
/// Only the first `CsvLoadResult::kMaxDiagnostics` rejects are recorded
/// verbatim (a multi-gigabyte feed of garbage must not balloon memory);
/// `lines_skipped` always holds the full count.
struct CsvLineDiagnostic {
  size_t line_number = 0;
  std::string reason;
};

/// Result of a CSV load: the database plus parse diagnostics.
struct CsvLoadResult {
  static constexpr size_t kMaxDiagnostics = 32;

  TrajectoryDatabase db;
  size_t lines_parsed = 0;
  size_t lines_skipped = 0;  ///< malformed rows or non-finite coordinates
  size_t duplicates_collapsed = 0;  ///< repeated (id, tick) rows dropped
  std::vector<CsvLineDiagnostic> diagnostics;  ///< first rejects, in order
  bool ok = false;  ///< false when the file could not be opened
  std::string error;
};

/// Loads trajectories from a CSV stream of rows `object_id,tick,x,y`.
/// A single header line is tolerated (detected by a non-numeric first
/// field). Rows may appear in any order. Defenses against messy feeds
/// (each skip/collapse is counted and the first few are described in
/// `diagnostics`):
///  * malformed rows (wrong field count, unparsable numbers, negative ids)
///    are skipped;
///  * rows with non-finite coordinates (`nan`, `inf` — which a NaN-naive
///    parse would happily accept and which poison every DBSCAN distance
///    comparison downstream) are skipped;
///  * rows with duplicate (id, tick) collapse to the last occurrence,
///    counted in `duplicates_collapsed`.
CsvLoadResult LoadTrajectoriesCsv(std::istream& in);

/// Convenience overload opening `path`. Sets ok=false on I/O failure.
CsvLoadResult LoadTrajectoriesCsv(const std::string& path);

/// Writes the database as `object_id,tick,x,y` rows with a header line.
void SaveTrajectoriesCsv(const TrajectoryDatabase& db, std::ostream& out);

/// Convenience overload writing to `path`; returns false on I/O failure.
bool SaveTrajectoriesCsv(const TrajectoryDatabase& db,
                         const std::string& path);

}  // namespace convoy

#endif  // CONVOY_IO_CSV_H_
