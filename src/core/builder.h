#pragma once

#include <vector>

#include "base/result.h"
#include "core/trajectory.h"
#include "indoor/nrg.h"

namespace sitm::core {

/// \brief One raw symbolic detection: the moving object's device was
/// observed inside `cell` over [start, end].
///
/// This is the shape of the Louvre dataset's "zone detections" (§4.1):
/// raw geometric positions already aggregated into symbolic cells by the
/// positioning pipeline.
struct RawDetection {
  ObjectId object;
  CellId cell;
  Timestamp start;
  Timestamp end;

  RawDetection() = default;
  RawDetection(ObjectId o, CellId c, Timestamp s, Timestamp e)
      : object(o), cell(c), start(s), end(e) {}
};

/// Options controlling raw-detection cleaning and trace assembly.
struct BuilderOptions {
  /// Drop detections with end <= start ("around 10% of the zone
  /// detections have a duration of zero value, forcing us to filter them
  /// out as detection errors", §4.1).
  bool drop_zero_duration = true;
  /// Merge consecutive detections of the same cell into one presence
  /// interval when the gap between them is at most this long.
  Duration same_cell_merge_gap = Duration::Minutes(5);
  /// Start a new trajectory when two consecutive detections of the same
  /// object are separated by more than this (session splitting: the
  /// Louvre's returning visitors made second/third visits, "although not
  /// necessarily on different days", so wall-clock grouping by day is
  /// wrong — gaps define visits).
  Duration session_gap = Duration::Hours(2);
  /// Trajectory-level annotations attached to every built trajectory
  /// (Def. 3.1 requires a non-empty A_traj; callers refine later).
  AnnotationSet default_annotations =
      AnnotationSet{{AnnotationKind::kActivity, "visit"}};
  /// First id to assign to built trajectories (sequential from here).
  TrajectoryId first_trajectory_id = TrajectoryId(1);
  /// Optional accessibility graph: when set, transition boundary ids are
  /// filled in for cell changes served by exactly one accessibility
  /// edge, and detections are kept even if not graph-consistent (the
  /// graph "can assist in filtering out data errors", §4.2 — see
  /// `drop_graph_inconsistent`).
  const indoor::Nrg* graph = nullptr;
  /// With a graph set: drop detections whose cell is not reachable from
  /// the previous detection's cell by one accessibility edge or by any
  /// path (teleports — localization glitches).
  bool drop_graph_inconsistent = false;
};

/// \brief The one order detections are assembled in, on every load
/// path: (start, end, cell). Two detections of one object that tie on
/// all three are identical, so the order is total — which detection of
/// a tie survives cleaning never depends on input order or on the
/// stability of a sort.
bool DetectionBefore(const RawDetection& a, const RawDetection& b);

/// What the cleaning rules did (§4.1, §4.2). TraceAssembler counts
/// them, so the batch and the live path report the same figures.
struct CleaningCounters {
  std::size_t zero_duration_dropped = 0;
  std::size_t overlaps_clipped = 0;
  std::size_t contained_dropped = 0;
  std::size_t graph_inconsistent_dropped = 0;
  std::size_t merged_same_cell = 0;

  CleaningCounters& operator+=(const CleaningCounters& other);
};

/// Counters describing what the builder did.
struct BuildReport : CleaningCounters {
  std::size_t records_in = 0;
  std::size_t objects_seen = 0;
  std::size_t trajectories_out = 0;
};

/// InvalidArgument unless every trajectory the options build can be
/// valid: Def. 3.1 requires a non-empty `default_annotations`.
[[nodiscard]] Status CheckBuilderOptions(const BuilderOptions& options);

/// \brief The per-object cleaning and assembly kernel: the single
/// implementation of the cleaning rules, session splitting, same-cell
/// merging and transition inference. TrajectoryBuilder, BatchPipeline
/// and live::IncrementalBuilder all drive it.
///
/// Feed it one object's detections in DetectionBefore order. Each is
/// cleaned against the last kept detection: dropped when zero-duration,
/// contained in it, or (with `drop_graph_inconsistent`) unreachable
/// from its cell; clipped to start past its end when overlapping. A
/// kept detection more than `session_gap` after the open trace closes
/// that trace and opens the next; otherwise it merges into the last
/// stay (same cell, within `same_cell_merge_gap`) or is appended. The
/// last kept detection outlives a split, so cleaning runs over the
/// whole object as one sequence.
class TraceAssembler {
 public:
  /// `options` is borrowed and must outlive the assembler.
  explicit TraceAssembler(const BuilderOptions& options)
      : options_(&options) {}

  /// Cleans and assembles the object's next detection. Returns the
  /// trace it closed by opening a new session, or an empty trace.
  [[nodiscard]] Trace Push(RawDetection detection);

  /// Closes the open trace and returns it (empty when none is open).
  [[nodiscard]] Trace Close();

  /// The trace being assembled (empty when none is open).
  const Trace& open_trace() const { return trace_; }

  /// The counters accumulated since the previous call; resets them.
  CleaningCounters TakeCounters();

 private:
  const BuilderOptions* options_;
  bool has_last_kept_ = false;
  RawDetection last_kept_;
  Trace trace_;
  CleaningCounters counters_;
};

/// \brief Stable partition of `detections` by object id, objects
/// ascending. Returns the group offsets — object g's detections are
/// [offsets[g], offsets[g + 1]), in input order — or InvalidArgument on
/// an invalid object or cell id.
[[nodiscard]] Result<std::vector<std::size_t>> PartitionByObject(
    std::vector<RawDetection>& detections);

/// \brief Builds one object's trajectories: sorts [begin, end) — all
/// detections of one object — by DetectionBefore and drives a
/// TraceAssembler over them. Appends one validated trajectory per
/// session to `out`, numbered from `*next_id` on and annotated with
/// `options.default_annotations`; adds the cleaning counters to
/// `*counters`.
[[nodiscard]] Status AssembleObject(const BuilderOptions& options,
                                    RawDetection* begin, RawDetection* end,
                                    TrajectoryId* next_id,
                                    std::vector<SemanticTrajectory>* out,
                                    CleaningCounters* counters);

/// \brief Assembles semantic trajectories from raw symbolic detections.
///
/// Detections are grouped by moving object; each object goes through a
/// TraceAssembler (see there for the cleaning and assembly rules), and
/// every visit becomes one SemanticTrajectory with sequential ids.
class TrajectoryBuilder {
 public:
  explicit TrajectoryBuilder(BuilderOptions options = {})
      : options_(std::move(options)) {}

  /// Builds all trajectories from the detection set. The input need not
  /// be sorted. Returns trajectories ordered by (object, start time).
  [[nodiscard]] Result<std::vector<SemanticTrajectory>> Build(
      std::vector<RawDetection> detections);

  /// The counters of the last Build() call.
  const BuildReport& report() const { return report_; }

 private:
  BuilderOptions options_;
  BuildReport report_;
};

}  // namespace sitm::core

