#pragma once

#include <cstddef>
#include <vector>

#include "base/result.h"
#include "base/task_runner.h"
#include "core/builder.h"
#include "core/enrichment.h"
#include "core/inference.h"
#include "core/trajectory.h"
#include "indoor/nrg.h"

namespace sitm::core {

/// Options for the batched build -> enrich -> infer pipeline.
struct PipelineOptions {
  /// Cleaning and trace-assembly options, applied per shard. The
  /// `first_trajectory_id` is honored globally: output ids are
  /// sequential from it in (object, start time) order, exactly as the
  /// sequential TrajectoryBuilder would assign them.
  BuilderOptions builder;

  /// Enrichment rules applied to every built trajectory; empty = skip
  /// the enrichment stage.
  std::vector<EnrichmentRule> rules;
  /// Graph resolving cell metadata for the rules; defaults to
  /// `builder.graph` when null. Required when `rules` is non-empty.
  const indoor::Nrg* enrichment_graph = nullptr;

  /// When true, runs topology-based hidden-passage inference on every
  /// trajectory after enrichment (Fig. 6 completion).
  bool infer_hidden_passages = false;
  InferenceOptions inference;
  /// Accessibility graph for inference; defaults to `enrichment_graph`,
  /// then `builder.graph`. Required when `infer_hidden_passages`.
  const indoor::Nrg* inference_graph = nullptr;

  /// Runner to execute the shard task graph on (borrowed; not owned).
  /// Entry points pass a sched::Executor; core itself holds only the
  /// base interface — the layering manifest keeps core below sched.
  /// Null runs every stage on the calling thread — the sequential
  /// reference path.
  TaskRunner* executor = nullptr;

  /// Moving objects per build shard (>= 1; smaller shards balance
  /// better, larger ones amortize per-shard task overhead).
  std::size_t objects_per_shard = 32;
};

/// \brief The per-trajectory stage — enrichment, then hidden-passage
/// inference — with its options checked and its graphs resolved once.
/// BatchPipeline applies it to every built trajectory and
/// live::IncrementalBuilder to every finalized one. Both stages read
/// only the trajectory's trace, never its id or other trajectories, so
/// applying it at build time or at finalization gives the same result.
class TrajectoryStage {
 public:
  /// A stage that does nothing.
  TrajectoryStage() = default;

  /// Checks the options of a build and of its per-trajectory stage, and
  /// resolves the graph defaults: enrichment falls back to
  /// `builder.graph`, inference to the enrichment graph. InvalidArgument
  /// when CheckBuilderOptions fails or a requested stage has no graph.
  /// `rules` and `inference` are borrowed and must outlive the stage.
  [[nodiscard]] static Result<TrajectoryStage> Make(
      const BuilderOptions& builder, const std::vector<EnrichmentRule>& rules,
      const indoor::Nrg* enrichment_graph, bool infer_hidden_passages,
      const InferenceOptions& inference, const indoor::Nrg* inference_graph);

  /// Whether Apply changes anything.
  bool enabled() const { return rules_ != nullptr || inference_ != nullptr; }

  /// Enriches, then infers hidden passages in `trajectory`, in place;
  /// adds what each stage did to `enrichment` and `inference`.
  [[nodiscard]] Status Apply(SemanticTrajectory* trajectory,
                             EnrichmentReport* enrichment,
                             InferenceReport* inference) const;

 private:
  /// Null when enrichment is off (no rules).
  const std::vector<EnrichmentRule>* rules_ = nullptr;
  const indoor::Nrg* enrichment_graph_ = nullptr;
  /// Null when inference is off.
  const InferenceOptions* inference_ = nullptr;
  const indoor::Nrg* inference_graph_ = nullptr;
};

/// Merged counters of one Run() call: per-shard cleaning counters and
/// per-trajectory Enrichment/InferenceReports summed field by field.
struct PipelineReport {
  BuildReport build;
  EnrichmentReport enrichment;
  InferenceReport inference;
  /// Build shards the detections were split into.
  std::size_t shards = 0;
};

/// \brief Batched, parallel build -> enrich -> infer over raw detections.
///
/// The Louvre study's workload shape (§4): millions of zone detections
/// turned into semantic trajectories before any mining can start. Raw
/// detections are grouped by moving object and objects are sharded;
/// each shard is a build task (a TraceAssembler driven over each of its
/// objects) chained to a TrajectoryStage task in one task graph, so a
/// shard that finishes building is enriched while later shards are
/// still building — no global stage barrier. The merged trajectories
/// are renumbered to the exact ids the sequential builder would have
/// assigned.
///
/// Determinism: for the same input and options, the output — ids,
/// traces, annotations, and the merged report — is byte-identical to
/// the sequential path (executor == nullptr) for every worker count.
/// Shard results are merged in object order and reports are summed in
/// index order, never in completion order; enrichment and inference
/// never read trajectory ids, so enriching before the renumber pass is
/// equivalent to the old renumber-then-enrich order.
class BatchPipeline {
 public:
  explicit BatchPipeline(PipelineOptions options)
      : options_(std::move(options)) {}

  /// Runs the full pipeline over the detection set (need not be sorted).
  /// Returns trajectories ordered by (object, start time). On error the
  /// first failing stage in deterministic (shard, then trajectory) order
  /// is reported.
  [[nodiscard]] Result<std::vector<SemanticTrajectory>> Run(
      std::vector<RawDetection> detections);

  /// Merged counters of the last Run() call.
  const PipelineReport& report() const { return report_; }

 private:
  PipelineOptions options_;
  PipelineReport report_;
};

}  // namespace sitm::core

