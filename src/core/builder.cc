#include "core/builder.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

namespace sitm::core {
namespace {

// Fills in the transition boundary for a cell change when the graph has
// exactly one accessibility edge between the cells.
BoundaryId InferTransition(const indoor::Nrg* graph, CellId from, CellId to) {
  if (graph == nullptr) return BoundaryId::Invalid();
  BoundaryId found = BoundaryId::Invalid();
  int matches = 0;
  for (const indoor::NrgEdge& e :
       graph->OutEdges(from, indoor::EdgeType::kAccessibility)) {
    if (e.to != to) continue;
    ++matches;
    found = e.boundary;
  }
  return matches == 1 ? found : BoundaryId::Invalid();
}

}  // namespace

bool DetectionBefore(const RawDetection& a, const RawDetection& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.end != b.end) return a.end < b.end;
  return a.cell.value() < b.cell.value();
}

CleaningCounters& CleaningCounters::operator+=(const CleaningCounters& other) {
  zero_duration_dropped += other.zero_duration_dropped;
  overlaps_clipped += other.overlaps_clipped;
  contained_dropped += other.contained_dropped;
  graph_inconsistent_dropped += other.graph_inconsistent_dropped;
  merged_same_cell += other.merged_same_cell;
  return *this;
}

Status CheckBuilderOptions(const BuilderOptions& options) {
  if (options.default_annotations.empty()) {
    return Status::InvalidArgument(
        "builder.default_annotations must be non-empty (Def. 3.1 requires "
        "a non-empty A_traj)");
  }
  return Status::OK();
}

Trace TraceAssembler::Push(RawDetection cur) {
  // Cleaning, against the last kept detection.
  if (options_->drop_zero_duration && cur.end <= cur.start) {
    ++counters_.zero_duration_dropped;
    return Trace();
  }
  if (has_last_kept_) {
    const RawDetection& prev = last_kept_;
    if (cur.end <= prev.end) {
      // Entirely inside the previous detection: redundant.
      ++counters_.contained_dropped;
      return Trace();
    }
    if (cur.start <= prev.end) {
      // Sensor hand-over overlap: clip the start just past the previous
      // end to keep presence intervals monotone.
      cur.start = prev.end + Duration::Seconds(1);
      ++counters_.overlaps_clipped;
      if (cur.start > cur.end) {
        ++counters_.zero_duration_dropped;
        return Trace();
      }
    }
    if (options_->drop_graph_inconsistent && options_->graph != nullptr &&
        cur.cell != prev.cell) {
      const std::vector<CellId> reach = options_->graph->Reachable(
          prev.cell, indoor::EdgeType::kAccessibility);
      if (std::find(reach.begin(), reach.end(), cur.cell) == reach.end()) {
        ++counters_.graph_inconsistent_dropped;
        return Trace();
      }
    }
  }
  last_kept_ = cur;
  has_last_kept_ = true;

  // Assembly: session split, same-cell merge, or append.
  Trace closed;
  if (!trace_.empty()) {
    const PresenceInterval& last = trace_.intervals().back();
    const Duration gap = cur.start - last.end();
    if (gap > options_->session_gap) {
      closed = Close();
    } else if (cur.cell == last.cell &&
               gap <= options_->same_cell_merge_gap) {
      // Extend the ongoing presence in the same cell.
      PresenceInterval merged = last;
      merged.interval = *qsr::TimeInterval::Make(last.start(), cur.end);
      trace_.mutable_intervals().back() = std::move(merged);
      ++counters_.merged_same_cell;
      return closed;
    }
  }
  PresenceInterval p;
  p.cell = cur.cell;
  p.interval = *qsr::TimeInterval::Make(cur.start, cur.end);
  if (!trace_.empty() && trace_.intervals().back().cell != cur.cell) {
    p.transition = InferTransition(options_->graph,
                                   trace_.intervals().back().cell, cur.cell);
  }
  trace_.Append(std::move(p));
  return closed;
}

Trace TraceAssembler::Close() { return std::exchange(trace_, Trace()); }

CleaningCounters TraceAssembler::TakeCounters() {
  return std::exchange(counters_, CleaningCounters());
}

Result<std::vector<std::size_t>> PartitionByObject(
    std::vector<RawDetection>& detections) {
  // An LSD radix sort on the id's offset from the smallest id, one pass
  // per 11-bit digit that varies.
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  std::int64_t lowest = 0, highest = 0;
  for (std::size_t i = 0; i < detections.size(); ++i) {
    const RawDetection& d = detections[i];
    if (!d.object.valid() || !d.cell.valid()) {
      return Status::InvalidArgument(
          "detection with invalid object or cell id");
    }
    const std::int64_t object = d.object.value();
    lowest = i == 0 ? object : std::min(lowest, object);
    highest = i == 0 ? object : std::max(highest, object);
  }
  // Keys are offsets from the smallest id, computed mod 2^64: exact for
  // every pair of int64 ids.
  const auto offset = [lowest](std::int64_t object) {
    return static_cast<std::uint64_t>(object) -
           static_cast<std::uint64_t>(lowest);
  };
  const std::uint64_t span = offset(highest);
  std::vector<RawDetection> scratch(detections.size());
  for (int shift = 0; shift < 64 && (span >> shift) != 0;
       shift += kDigitBits) {
    const auto digit = [&offset, shift](const RawDetection& d) {
      return (offset(d.object.value()) >> shift) & (kBuckets - 1);
    };
    std::array<std::size_t, kBuckets + 1> next{};
    for (const RawDetection& d : detections) ++next[digit(d) + 1];
    for (std::size_t b = 1; b <= kBuckets; ++b) next[b] += next[b - 1];
    for (const RawDetection& d : detections) scratch[next[digit(d)]++] = d;
    detections.swap(scratch);
  }
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < detections.size(); ++i) {
    if (i == 0 || detections[i].object != detections[i - 1].object) {
      offsets.push_back(i);
    }
  }
  offsets.push_back(detections.size());
  return offsets;
}

Status AssembleObject(const BuilderOptions& options, RawDetection* begin,
                      RawDetection* end, TrajectoryId* next_id,
                      std::vector<SemanticTrajectory>* out,
                      CleaningCounters* counters) {
  std::sort(begin, end, DetectionBefore);
  TraceAssembler assembler(options);
  const auto emit = [&](Trace trace) -> Status {
    if (trace.empty()) return Status::OK();
    SemanticTrajectory trajectory(*next_id, begin->object, std::move(trace),
                                  options.default_annotations);
    *next_id = TrajectoryId(next_id->value() + 1);
    SITM_RETURN_IF_ERROR(trajectory.Validate());
    out->push_back(std::move(trajectory));
    return Status::OK();
  };
  for (RawDetection* d = begin; d != end; ++d) {
    SITM_RETURN_IF_ERROR(emit(assembler.Push(*d)));
  }
  SITM_RETURN_IF_ERROR(emit(assembler.Close()));
  *counters += assembler.TakeCounters();
  return Status::OK();
}

Result<std::vector<SemanticTrajectory>> TrajectoryBuilder::Build(
    std::vector<RawDetection> detections) {
  report_ = BuildReport{};
  report_.records_in = detections.size();
  SITM_RETURN_IF_ERROR(CheckBuilderOptions(options_));
  SITM_ASSIGN_OR_RETURN(const std::vector<std::size_t> offsets,
                        PartitionByObject(detections));
  report_.objects_seen = offsets.size() - 1;

  std::vector<SemanticTrajectory> out;
  TrajectoryId next_id = options_.first_trajectory_id;
  for (std::size_t g = 0; g < report_.objects_seen; ++g) {
    SITM_RETURN_IF_ERROR(AssembleObject(
        options_, detections.data() + offsets[g],
        detections.data() + offsets[g + 1], &next_id, &out, &report_));
  }
  report_.trajectories_out = out.size();
  return out;
}

}  // namespace sitm::core
