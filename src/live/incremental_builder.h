#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "base/result.h"
#include "core/builder.h"
#include "core/pipeline.h"
#include "indoor/nrg.h"

namespace sitm::live {

/// Options for the streaming builder. `builder` carries the cleaning
/// and assembly options of core::TrajectoryBuilder; the
/// enrichment/inference fields mirror core::PipelineOptions and resolve
/// through the same core::TrajectoryStage.
struct IncrementalOptions {
  core::BuilderOptions builder;

  /// How far event time may run behind the maximum start time seen
  /// before a detection counts as late. The watermark is
  /// `max(start seen) - allowed_lateness`; arrivals starting before it
  /// are dropped (counted in stats().late_dropped) because the sorted
  /// prefix they belong to has already been consumed.
  Duration allowed_lateness = Duration::Minutes(30);

  /// Bound on tracked moving objects (0 = unbounded). When exceeded,
  /// the least-recently-active object is force-finalized and forgotten
  /// (see IncrementalBuilder's eviction note).
  std::size_t max_open_objects = 0;

  /// Enrichment rules applied to every finalized trajectory; empty =
  /// skip. Graph defaulting is core::TrajectoryStage's.
  std::vector<core::EnrichmentRule> rules;
  const indoor::Nrg* enrichment_graph = nullptr;
  bool infer_hidden_passages = false;
  core::InferenceOptions inference;
  const indoor::Nrg* inference_graph = nullptr;
};

/// Observable state of the stream (monotone counters plus the current
/// open-state footprint; peaks are the bench's bounded-memory oracle).
struct IncrementalStats {
  /// Event-time low-water mark; meaningful once has_watermark.
  Timestamp watermark;
  bool has_watermark = false;
  std::size_t records_in = 0;
  std::size_t late_dropped = 0;
  std::size_t evicted_objects = 0;
  std::size_t finalized = 0;
  /// Current footprint.
  std::size_t open_objects = 0;
  std::size_t buffered_detections = 0;
  /// High-water marks of the two fields above.
  std::size_t peak_open_objects = 0;
  std::size_t peak_buffered_detections = 0;
  /// What the cleaning rules dropped, clipped and merged so far; after
  /// Drain() these equal the batch build's counters over the admitted
  /// detections.
  core::CleaningCounters cleaning;
};

/// \brief Streaming counterpart of core::BatchPipeline: a
/// core::TraceAssembler per object, fed in watermark order, and a
/// core::TrajectoryStage applied to every finalized trajectory.
///
/// The watermark W = max start seen - allowed_lateness makes the feed
/// order the batch order: each object feeds its DetectionBefore-sorted
/// pending prefix with start < W, and every later admission starts at
/// or after W (earlier ones are dropped as late). An open trace
/// finalizes once W - its end exceeds the session gap, since any later
/// detection would open a new session there too. So any admissible
/// arrival order, finished with Drain(), finalizes exactly the batch
/// build with the same cleaning counters, up to trajectory ids, which
/// follow finalization order (live::SegmentStore::Snapshot re-derives
/// the canonical ones). tests/live_equivalence_property_test pins this.
///
/// Eviction forgets an object's last kept detection: the one counted
/// (evicted_objects) divergence from batch.
///
/// Not thread-safe: callers (live::LiveService) serialize access.
class IncrementalBuilder {
 public:
  explicit IncrementalBuilder(IncrementalOptions options);

  /// Not copyable or movable: the per-object assemblers and the stage
  /// borrow `options_`.
  IncrementalBuilder(const IncrementalBuilder&) = delete;
  IncrementalBuilder& operator=(const IncrementalBuilder&) = delete;

  /// Ingests one batch (any order, any objects), appending every
  /// trajectory finalized by the resulting watermark advance — and by
  /// any eviction it forces — to `finalized`.
  [[nodiscard]] Status Ingest(const std::vector<core::RawDetection>& batch,
                              std::vector<core::SemanticTrajectory>* finalized);

  /// End-of-stream: consumes every buffered detection and flushes every
  /// open trace as if the watermark passed infinity, then forgets all
  /// per-object state. Counters and the watermark survive; a later
  /// Ingest starts objects from a clean slate.
  [[nodiscard]] Status Drain(std::vector<core::SemanticTrajectory>* finalized);

  const IncrementalStats& stats() const { return stats_; }

  /// Next provisional trajectory id (what the next finalized trajectory
  /// will be numbered).
  TrajectoryId next_id() const { return next_id_; }

 private:
  struct ObjectState {
    explicit ObjectState(const core::BuilderOptions& options)
        : assembler(options) {}
    /// Admitted, not yet fed to the assembler; sorted at consumption.
    std::vector<core::RawDetection> pending;
    core::TraceAssembler assembler;
    /// Ingest-sequence number of the last admission (eviction order).
    std::uint64_t last_activity = 0;
  };

  /// Feeds `state`'s sorted pending prefix below `watermark` (all of it
  /// when `consume_all`) to its assembler.
  [[nodiscard]] Status ConsumeReady(ObjectId object, ObjectState& state,
                                    Timestamp watermark, bool consume_all,
                                    std::vector<core::SemanticTrajectory>* out);
  /// Turns a closed trace (no-op when empty) into a validated, staged
  /// trajectory in `out`.
  [[nodiscard]] Status Finalize(ObjectId object, core::Trace trace,
                                std::vector<core::SemanticTrajectory>* out);
  /// Force-finalizes and forgets the least-recently-active object.
  [[nodiscard]] Status EvictOne(std::vector<core::SemanticTrajectory>* out);
  void UpdateFootprint();

  IncrementalOptions options_;
  /// The options check's outcome, returned by every Ingest/Drain.
  Status config_;
  core::TrajectoryStage stage_;
  /// Ordered so watermark sweeps visit objects deterministically.
  std::map<ObjectId, ObjectState> objects_;
  bool has_max_start_ = false;
  Timestamp max_start_;
  std::uint64_t activity_seq_ = 0;
  TrajectoryId next_id_;
  IncrementalStats stats_;
};

}  // namespace sitm::live
