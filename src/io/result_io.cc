#include "io/result_io.h"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

namespace convoy {

void SaveConvoysCsv(const std::vector<Convoy>& convoys, std::ostream& out) {
  out << "start_tick,end_tick,object_ids\n";
  for (const Convoy& c : convoys) {
    out << c.start_tick << "," << c.end_tick << ",";
    for (size_t i = 0; i < c.objects.size(); ++i) {
      if (i > 0) out << ";";
      out << c.objects[i];
    }
    out << "\n";
  }
}

bool SaveConvoysCsv(const std::vector<Convoy>& convoys,
                    const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  SaveConvoysCsv(convoys, out);
  return out.good();
}

namespace {

bool ParseI64(std::string_view s, int64_t* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

}  // namespace

std::vector<Convoy> LoadConvoysCsv(std::istream& in, size_t* skipped) {
  std::vector<Convoy> out;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    std::string_view view = line;
    while (!view.empty() && (view.back() == '\r' || view.back() == ' ')) {
      view.remove_suffix(1);
    }
    if (view.empty()) continue;

    const size_t c1 = view.find(',');
    const size_t c2 = c1 == std::string_view::npos
                          ? std::string_view::npos
                          : view.find(',', c1 + 1);
    int64_t start = 0;
    int64_t end = 0;
    bool ok = c2 != std::string_view::npos &&
              ParseI64(view.substr(0, c1), &start) &&
              ParseI64(view.substr(c1 + 1, c2 - c1 - 1), &end);
    Convoy convoy;
    if (ok) {
      convoy.start_tick = start;
      convoy.end_tick = end;
      std::string_view ids = view.substr(c2 + 1);
      while (ok && !ids.empty()) {
        const size_t semi = ids.find(';');
        const std::string_view tok = ids.substr(0, semi);
        int64_t id = 0;
        ok = ParseI64(tok, &id) && id >= 0;
        if (ok) convoy.objects.push_back(static_cast<ObjectId>(id));
        if (semi == std::string_view::npos) break;
        ids.remove_prefix(semi + 1);
      }
      ok = ok && !convoy.objects.empty() && start <= end;
    }
    if (ok) {
      out.push_back(std::move(convoy));
    } else if (first) {
      // header
    } else if (skipped != nullptr) {
      ++*skipped;
    }
    first = false;
  }
  Canonicalize(&out);
  return out;
}

void SaveConvoysJson(const std::vector<Convoy>& convoys, std::ostream& out) {
  out << "[";
  for (size_t i = 0; i < convoys.size(); ++i) {
    const Convoy& c = convoys[i];
    if (i > 0) out << ",";
    out << "\n  {\"objects\":[";
    for (size_t j = 0; j < c.objects.size(); ++j) {
      if (j > 0) out << ",";
      out << c.objects[j];
    }
    out << "],\"start\":" << c.start_tick << ",\"end\":" << c.end_tick << "}";
  }
  out << (convoys.empty() ? "]" : "\n]") << "\n";
}

void SaveResultSetJson(const ConvoyResultSet& result, std::ostream& out) {
  const QueryPlan& plan = result.plan();
  const DiscoveryStats& stats = result.stats();
  const AlgorithmCapabilities caps = CapabilitiesOf(plan.algorithm);

  out << "{\n\"plan\":{";
  out << "\"algorithm\":\"" << ToString(plan.algorithm) << "\"";
  out << ",\"requested\":\"" << ToString(plan.requested) << "\"";
  out << ",\"query\":{\"m\":" << plan.query.m << ",\"k\":" << plan.query.k
      << ",\"e\":" << plan.query.e
      << ",\"threads\":" << plan.query.num_threads << "}";
  if (caps.uses_simplification) {
    out << ",\"delta\":" << plan.delta
        << ",\"delta_derived\":" << (plan.delta_derived ? "true" : "false");
    out << ",\"lambda\":" << plan.lambda
        << ",\"lambda_derived\":" << (plan.lambda_derived ? "true" : "false");
  }
  out << ",\"cache\":\"" << ToString(plan.cache) << "\"";
  out << ",\"exact\":" << (caps.exact ? "true" : "false");
  out << ",\"database\":{\"objects\":" << plan.db_stats.num_objects
      << ",\"ticks\":" << plan.db_stats.time_domain_length
      << ",\"points\":" << plan.db_stats.total_points << "}";
  out << ",\"estimated_clusterings\":" << plan.estimated_clusterings
      << ",\"estimated_work\":" << plan.estimated_work;
  out << "},\n";

  out << "\"stats\":{";
  out << "\"total_seconds\":" << stats.total_seconds
      << ",\"simplify_seconds\":" << stats.simplify_seconds
      << ",\"filter_seconds\":" << stats.filter_seconds
      << ",\"refine_seconds\":" << stats.refine_seconds
      << ",\"num_candidates\":" << stats.num_candidates
      << ",\"num_clusterings\":" << stats.num_clusterings
      << ",\"num_convoys\":" << stats.num_convoys;
  out << "},\n";

  // Observability block: present (with "enabled":false) even for untraced
  // runs so consumers can key on it unconditionally. Counters are
  // deterministic; spans/series are wall-clock.
  out << "\"metrics\":";
  result.metrics().WriteJson(out);
  out << ",\n";

  out << "\"convoys\":";
  SaveConvoysJson(result.convoys(), out);
  out << "}\n";
}

bool SaveResultSetJson(const ConvoyResultSet& result,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  SaveResultSetJson(result, out);
  return out.good();
}

}  // namespace convoy
