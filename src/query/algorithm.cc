#include "query/algorithm.h"

namespace convoy {

AlgorithmCapabilities CapabilitiesOf(AlgorithmId id) {
  AlgorithmCapabilities caps;
  switch (id) {
    case AlgorithmId::kMc2:
      // CMC's snapshot sweep with a chain step instead of the tracker,
      // with false positives and negatives by design.
      caps.exact = false;
      caps.uses_snapshot_store = true;
      break;
    case AlgorithmId::kCmc:
      caps.uses_snapshot_store = true;
      break;
    case AlgorithmId::kCuts:
    case AlgorithmId::kCutsPlus:
    case AlgorithmId::kCutsStar:
      // Polylines, not snapshots; refinement removes every false hit.
      caps.uses_simplification = true;
      break;
  }
  caps.supports_threads = true;
  return caps;
}

std::string_view ToString(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kCmc:
      return "CMC";
    case AlgorithmId::kCuts:
      return "CuTS";
    case AlgorithmId::kCutsPlus:
      return "CuTS+";
    case AlgorithmId::kCutsStar:
      return "CuTS*";
    case AlgorithmId::kMc2:
      return "MC2";
  }
  return "?";
}

std::string_view ToString(AlgorithmChoice choice) {
  switch (choice) {
    case AlgorithmChoice::kAuto:
      return "auto";
    case AlgorithmChoice::kCmc:
      return "CMC";
    case AlgorithmChoice::kCuts:
      return "CuTS";
    case AlgorithmChoice::kCutsPlus:
      return "CuTS+";
    case AlgorithmChoice::kCutsStar:
      return "CuTS*";
    case AlgorithmChoice::kMc2:
      return "MC2";
  }
  return "?";
}

std::optional<AlgorithmChoice> ParseAlgorithmChoice(std::string_view name) {
  if (name == "auto") return AlgorithmChoice::kAuto;
  if (name == "cmc") return AlgorithmChoice::kCmc;
  if (name == "cuts") return AlgorithmChoice::kCuts;
  if (name == "cuts+") return AlgorithmChoice::kCutsPlus;
  if (name == "cuts*") return AlgorithmChoice::kCutsStar;
  if (name == "mc2") return AlgorithmChoice::kMc2;
  return std::nullopt;
}

}  // namespace convoy
