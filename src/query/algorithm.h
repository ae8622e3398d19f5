#ifndef CONVOY_QUERY_ALGORITHM_H_
#define CONVOY_QUERY_ALGORITHM_H_

#include <optional>
#include <string_view>

namespace convoy {

/// The physical convoy-discovery algorithms ConvoyEngine can run — the
/// paper's fixed set of plans. ConvoyEngine::Execute dispatches on it.
enum class AlgorithmId {
  kCmc,       ///< exact CMC baseline (Algorithm 1)
  kCuts,      ///< CuTS: DP simplification + DLL bound (Section 5)
  kCutsPlus,  ///< CuTS+: DP+ simplification + DLL bound (Section 6.1)
  kCutsStar,  ///< CuTS*: DP* simplification + D* bound (Section 6.2)
  kMc2,       ///< approximate moving-cluster baseline (Appendix B.1)
};

/// What a caller asks for: a specific physical algorithm, or kAuto to let
/// the planner pick one from database statistics. Auto only ever selects an
/// *exact* algorithm (CMC or CuTS*); the approximate MC2 must be requested
/// explicitly.
enum class AlgorithmChoice {
  kAuto,
  kCmc,
  kCuts,
  kCutsPlus,
  kCutsStar,
  kMc2,
};

/// Static properties of an algorithm, surfaced through EXPLAIN and the
/// README capability matrix.
struct AlgorithmCapabilities {
  bool exact = true;                 ///< result set == CMC's on every input
  bool uses_simplification = false;  ///< consumes the (simplifier, delta) cache
  /// Reads per-tick snapshots, so the engine materializes the columnar
  /// SnapshotStore for it (CMC, MC2). Algorithms without it (the CuTS
  /// family clusters simplified polylines, not snapshots) never trigger a
  /// store build — they only reuse an already-built store's time domain.
  bool uses_snapshot_store = false;
  bool supports_threads = false;     ///< num_threads > 1 changes wall clock
};

/// The capability row of `id`.
AlgorithmCapabilities CapabilitiesOf(AlgorithmId id);

/// "CMC", "CuTS", "CuTS+", "CuTS*", "MC2".
std::string_view ToString(AlgorithmId id);

/// "auto" or the algorithm name.
std::string_view ToString(AlgorithmChoice choice);

/// Parses the CLI spelling: "auto", "cmc", "cuts", "cuts+", "cuts*", "mc2"
/// (case-sensitive, matching the historical --algo values). nullopt for
/// anything else.
std::optional<AlgorithmChoice> ParseAlgorithmChoice(std::string_view name);

}  // namespace convoy

#endif  // CONVOY_QUERY_ALGORITHM_H_
