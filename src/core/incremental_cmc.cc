#include "core/incremental_cmc.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <sstream>

#include "traj/database.h"
#include "util/stopwatch.h"

namespace convoy {

namespace {

// First sample at or after tick t.
std::vector<TimedPoint>::const_iterator FirstAtOrAfter(
    const std::vector<TimedPoint>& samples, Tick t) {
  return std::lower_bound(
      samples.begin(), samples.end(), t,
      [](const TimedPoint& p, Tick tick) { return p.t < tick; });
}

size_t CandidateBytes(const std::vector<Candidate>& live) {
  size_t bytes = live.capacity() * sizeof(Candidate);
  for (const Candidate& c : live) {
    bytes += c.objects.capacity() * sizeof(ObjectId);
  }
  return bytes;
}

}  // namespace

void AcceptReport(RowTable* rows, ObjectId id, const Point& pos, Tick t) {
  std::vector<TimedPoint>& samples = (*rows)[id];
  if (!samples.empty() && samples.back().t == t) {
    samples.back().pos = pos;
  } else {
    samples.emplace_back(pos.x, pos.y, t);
  }
}

IncrementalCmc::IncrementalCmc(const ConvoyQuery& query) : query_(query) {}

IncrementalPlan IncrementalCmc::Plan(const RowTable& rows) const {
  IncrementalPlan plan;
  RefreshWindow& w = plan.window;
  w.fresh = !clustered_through_.has_value();
  w.begin = std::numeric_limits<Tick>::max();
  w.end = std::numeric_limits<Tick>::min();
  const Tick last_clustered = clustered_through_.value_or(0);
  w.dirty_from = last_clustered;
  for (const auto& [id, samples] : rows) {
    if (samples.empty()) continue;
    plan.empty = false;
    ++w.objects;
    w.points += samples.size();
    w.begin = std::min(w.begin, samples.front().t);
    w.end = std::max(w.end, samples.back().t);
    if (w.fresh || samples.back().t < last_clustered) continue;
    // Every sample at or after E may be new; positions before the last
    // sample preceding E are fixed.
    const auto first_new = FirstAtOrAfter(samples, last_clustered);
    w.dirty_from = std::min(w.dirty_from, first_new == samples.begin()
                                              ? first_new->t
                                              : std::prev(first_new)->t + 1);
  }
  if (plan.empty) return plan;

  if (w.fresh) {
    w.dirty_from = w.begin;
    w.resume = w.begin;
    w.checkpoint = 0;
  } else {
    // checkpoints_[0] sits at the first tick, which no dirty_from precedes.
    const auto after = std::upper_bound(
        checkpoints_.begin(), checkpoints_.end(), w.dirty_from,
        [](Tick t, const Checkpoint& cp) { return t < cp.tick; });
    w.checkpoint = static_cast<size_t>(after - checkpoints_.begin()) - 1;
    w.resume = checkpoints_[w.checkpoint].tick;
  }

  for (const auto& [id, samples] : rows) {
    if (samples.empty() || samples.back().t < w.resume) continue;
    auto from = FirstAtOrAfter(samples, w.resume);
    if (from != samples.begin()) --from;
    plan.tail.emplace_back(id, std::vector<TimedPoint>(from, samples.end()));
  }
  return plan;
}

void IncrementalCmc::SaveCheckpoint(Tick tick, const CmcSweep& sweep) {
  Checkpoint cp;
  cp.tick = tick;
  cp.live = sweep.tracker.live();
  cp.completed = sweep.completed.size();
  cp.bytes = sizeof(Checkpoint) + CandidateBytes(cp.live);
  checkpoint_bytes_ += cp.bytes;
  checkpoints_.push_back(std::move(cp));
}

std::vector<Convoy> IncrementalCmc::Refresh(IncrementalPlan plan,
                                            IncrementalReport* report) {
  if (plan.empty) {
    if (report != nullptr) *report = IncrementalReport{};
    return {};
  }
  const RefreshWindow& w = plan.window;
  Stopwatch sweep_watch;
  // The tracker is rebuilt from a checkpoint on every refresh (dirty_from
  // never passes the last tick swept, which may still change), so what
  // persists between refreshes is the checkpoints and the completed list.
  CmcSweep sweep(query_.m, query_.k);
  if (w.fresh) {
    begin_ = w.begin;
    checkpoints_.clear();
    checkpoint_bytes_ = 0;
    SaveCheckpoint(w.begin, sweep);
  } else {
    // Checkpoints past the resume tick describe ticks about to be swept
    // again; the sweep re-saves them on the way.
    for (size_t i = w.checkpoint + 1; i < checkpoints_.size(); ++i) {
      checkpoint_bytes_ -= checkpoints_[i].bytes;
    }
    checkpoints_.resize(w.checkpoint + 1);
    const Checkpoint& from = checkpoints_.back();
    sweep.tracker.Restore(from.live);
    completed_.resize(from.completed);
    sweep.completed = std::move(completed_);
  }

  size_t tail_points = 0;
  TrajectoryDatabase tail;
  const size_t tail_objects = plan.tail.size();
  for (auto& [id, samples] : plan.tail) {
    tail_points += samples.size();
    tail.Add(Trajectory(id, std::move(samples)));
  }
  // One SweepRows call per checkpoint interval: w.resume sits on the
  // checkpoint grid, and the state after each interval but the last is the
  // next checkpoint. Its end derives from the ticks left, so an interval
  // at the top of the tick range cannot overflow.
  for (Tick from = w.resume;;) {
    const uint64_t left =
        static_cast<uint64_t>(w.end) - static_cast<uint64_t>(from);
    const Tick to = left < static_cast<uint64_t>(kCheckpointTicks)
                        ? w.end
                        : from + (kCheckpointTicks - 1);
    SweepRows(tail, query_, from, to, RowSelector{}, &sweep,
              /*stats=*/nullptr, /*hooks=*/nullptr, &scratch_);
    if (to == w.end) break;
    from = to + 1;
    SaveCheckpoint(from, sweep);
  }
  clustered_through_ = w.end;
  const double sweep_ms = sweep_watch.ElapsedSeconds() * 1e3;

  Stopwatch finalize_watch;
  std::vector<Convoy> result = FinishSweep(&sweep, CmcOptions{});
  // The next refresh keeps only the prefix its checkpoint counted, which
  // drops the candidates this flush added.
  completed_ = std::move(sweep.completed);

  if (report != nullptr) {
    report->window = w;
    report->tail_objects = tail_objects;
    report->tail_points = tail_points;
    report->ticks_clustered = static_cast<size_t>(w.end - w.resume) + 1;
    report->checkpoints = checkpoints_.size();
    report->checkpoint_bytes = checkpoint_bytes_;
    report->convoys = result.size();
    report->sweep_ms = sweep_ms;
    report->finalize_ms = finalize_watch.ElapsedSeconds() * 1e3;
  }
  return result;
}

std::string IncrementalReport::Explain(const ConvoyQuery& query,
                                       bool automatic) const {
  const RefreshWindow& w = window;
  const Tick length = w.objects == 0 ? 0 : w.end - w.begin + 1;
  std::ostringstream out;
  out << "plan\n";
  out << "  algorithm:   CMC, live incremental"
      << (automatic ? " (auto: live stream)" : " (explicit)") << "\n";
  out << "  query:       m=" << query.m << " k=" << query.k
      << " e=" << query.e << " threads=1\n";
  out << "  database:    N=" << w.objects << " T=" << length
      << " points=" << w.points << " (the stream's accepted rows)\n";
  if (w.objects == 0) {
    out << "  resume:      n/a (no rows accepted yet)\n";
  } else if (w.fresh) {
    out << "  resume:      tick " << w.resume
        << ", first refresh (full sweep)\n";
  } else {
    out << "  resume:      tick " << w.resume << " from checkpoint "
        << w.checkpoint << " (first changed tick " << w.dirty_from << ", "
        << (w.dirty_from - w.resume) << " tick(s) replayed before it)\n";
  }
  out << "  clustered:   " << ticks_clustered << " of " << length
      << " ticks";
  if (ticks_clustered > 0) {
    out << " (" << w.resume << ".." << w.end << "; " << tail_objects
        << " objects, " << tail_points << " samples copied)";
  }
  out << "\n";
  out << "  checkpoints: " << checkpoints << " every "
      << IncrementalCmc::kCheckpointTicks << " ticks, "
      << (checkpoint_bytes + 1023) / 1024 << " KiB\n";
  out << "  time:        sweep " << sweep_ms << " ms, finalize "
      << finalize_ms << " ms (flush + dominance pruning), " << convoys
      << " convoy(s)\n";
  out << "  capabilities: exact, incremental, single-threaded\n";
  return out.str();
}

}  // namespace convoy
