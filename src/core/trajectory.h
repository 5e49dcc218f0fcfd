#pragma once

#include <string>

#include "base/result.h"
#include "core/trace.h"

namespace sitm::core {

/// \brief A semantic trajectory (Def. 3.1): the couple of a
/// spatiotemporal trace and a non-empty set of semantic annotations
/// describing the trajectory in its entirety.
///
/// T_{ID_mo, t_start, t_end} = (trace_{ID_mo, t_start, t_end}, A_traj).
/// The trajectory-level annotations typically represent an activity, a
/// behavior, or a goal showcased by the complete trajectory (§3.3).
class SemanticTrajectory {
 public:
  SemanticTrajectory() = default;
  SemanticTrajectory(TrajectoryId id, ObjectId object, Trace trace,
                     AnnotationSet annotations)
      : id_(id),
        object_(object),
        trace_(std::move(trace)),
        annotations_(std::move(annotations)) {}

  TrajectoryId id() const { return id_; }
  void set_id(TrajectoryId id) { id_ = id; }
  ObjectId object() const { return object_; }
  const Trace& trace() const { return trace_; }
  Trace& mutable_trace() { return trace_; }
  const AnnotationSet& annotations() const { return annotations_; }
  void set_annotations(AnnotationSet a) { annotations_ = std::move(a); }

  /// Trajectory bounds. Precondition: non-empty trace.
  Timestamp start() const { return trace_.start(); }
  Timestamp end() const { return trace_.end(); }
  Duration Span() const { return trace_.Span(); }

  /// Def. 3.1 well-formedness: valid ids, valid trace, and a *non-empty*
  /// annotation set ("The second element of the couple in Def. 3.1 is a
  /// non-empty set of semantic annotations").
  [[nodiscard]] Status Validate() const;

  /// \brief Extracts the semantic subtrajectory over interval indices
  /// [begin, end) with its own annotation set (Def. 3.3).
  ///
  /// The slice must be a *proper* subsequence: per the definition, its
  /// time bounds satisfy t_start <= t'_start < t'_end < t_end or
  /// t_start < t'_start < t'_end <= t_end. A subtrajectory may keep or
  /// change the parent's annotations (contrary to CONSTAnT, the paper
  /// allows either). The result carries the same trajectory and object
  /// ids, marking its provenance.
  [[nodiscard]] Result<SemanticTrajectory> Subtrajectory(std::size_t begin, std::size_t end,
                                           AnnotationSet annotations) const;

  /// True iff `other` could be a subtrajectory of this trajectory: same
  /// moving object, its trace is a contiguous subsequence of this trace
  /// (ignoring annotation differences on the shared tuples is NOT
  /// allowed — tuples must match exactly), and its time bounds are
  /// properly inside per Def. 3.3.
  bool IsSubtrajectoryOf(const SemanticTrajectory& parent) const;

  /// \brief Event-based split (§3.3): splits the interval at `index`
  /// into [start, at] and [at + 1s, end], giving the second part
  /// `annotations_after` (and no transition — the object did not move).
  ///
  /// This realizes the paper's room006 example: the presence interval is
  /// split when the visitor's goal changes while staying in the cell.
  /// Fails unless start <= at and at + 1s <= end.
  [[nodiscard]] Status SplitIntervalAt(std::size_t index, Timestamp at,
                         AnnotationSet annotations_after);

  /// Replaces the per-stay annotations of one interval.
  [[nodiscard]] Status AnnotateInterval(std::size_t index, AnnotationSet annotations);

  /// Human-readable rendering.
  std::string ToString() const;

 private:
  TrajectoryId id_;
  ObjectId object_;
  Trace trace_;
  AnnotationSet annotations_;
};

}  // namespace sitm::core

