#ifndef CONVOY_CORE_VALIDATE_H_
#define CONVOY_CORE_VALIDATE_H_

#include "core/convoy_set.h"
#include "core/cuts_filter.h"
#include "util/status.h"

namespace convoy {

/// Validates a convoy query against Definition 3's domain:
///  * m >= 2 (a convoy is a *group*; the pattern needs at least two objects),
///  * k >= 1 (a lifetime of at least one tick),
///  * e > 0 and finite (the density range is a positive distance).
///
/// The Status-returning entry points (`StreamingCmc`,
/// `ConvoyEngine::Prepare`, `convoy_cli`) reject invalid queries up front
/// with this. The free functions (`Cmc`, `Cuts`, `Mc2`) deliberately stay
/// permissive — degenerate queries like m = 1 or e = 0 have well-defined
/// (if rarely useful) semantics there, exercised by edge_cases_test.cc.
Status ValidateQuery(const ConvoyQuery& query);

/// Validates the CuTS filter knobs: delta may be non-positive (meaning
/// "derive automatically with ComputeDelta") but must not be NaN/infinite,
/// since a non-finite delta poisons every simplification tolerance
/// comparison. (lambda is an integral Tick; every value is well-formed,
/// with <= 0 meaning "derive with ComputeLambda".)
Status ValidateFilterOptions(const CutsFilterOptions& options);

}  // namespace convoy

#endif  // CONVOY_CORE_VALIDATE_H_
