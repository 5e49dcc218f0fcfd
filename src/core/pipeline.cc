#include "core/pipeline.h"

#include <algorithm>
#include <utility>

#include "base/task_graph.h"

namespace sitm::core {
namespace {

void AddTo(EnrichmentReport* into, const EnrichmentReport& from) {
  into->tuples_touched += from.tuples_touched;
  into->annotations_added += from.annotations_added;
}

void AddTo(InferenceReport* into, const InferenceReport& from) {
  into->inserted += from.inserted;
  into->already_consistent += from.already_consistent;
  into->ambiguous += from.ambiguous;
  into->disconnected += from.disconnected;
}

/// What one shard produced: its trajectories (shard-local ids) and
/// counters, and the first failure of its build or of its
/// per-trajectory stage. Default state is an empty OK outcome so the
/// slot vector can be preallocated.
struct ShardOutcome {
  Status build_status;
  Status stage_status;
  std::vector<SemanticTrajectory> trajectories;
  CleaningCounters cleaning;
  EnrichmentReport enrichment;
  InferenceReport inference;
};

}  // namespace

Result<TrajectoryStage> TrajectoryStage::Make(
    const BuilderOptions& builder, const std::vector<EnrichmentRule>& rules,
    const indoor::Nrg* enrichment_graph, bool infer_hidden_passages,
    const InferenceOptions& inference, const indoor::Nrg* inference_graph) {
  SITM_RETURN_IF_ERROR(CheckBuilderOptions(builder));
  TrajectoryStage stage;
  stage.enrichment_graph_ =
      enrichment_graph != nullptr ? enrichment_graph : builder.graph;
  stage.inference_graph_ =
      inference_graph != nullptr ? inference_graph : stage.enrichment_graph_;
  if (!rules.empty()) {
    if (stage.enrichment_graph_ == nullptr) {
      return Status::InvalidArgument(
          "enrichment rules need enrichment_graph (or builder.graph)");
    }
    stage.rules_ = &rules;
  }
  if (infer_hidden_passages) {
    if (stage.inference_graph_ == nullptr) {
      return Status::InvalidArgument(
          "infer_hidden_passages needs inference_graph (or "
          "enrichment_graph / builder.graph)");
    }
    stage.inference_ = &inference;
  }
  return stage;
}

Status TrajectoryStage::Apply(SemanticTrajectory* trajectory,
                              EnrichmentReport* enrichment,
                              InferenceReport* inference) const {
  if (rules_ != nullptr) {
    SITM_ASSIGN_OR_RETURN(
        const EnrichmentReport enriched,
        EnrichTrajectory(trajectory, *enrichment_graph_, *rules_));
    AddTo(enrichment, enriched);
  }
  if (inference_ != nullptr) {
    SITM_ASSIGN_OR_RETURN(
        auto inferred,
        InferHiddenPassages(*trajectory, *inference_graph_, *inference_));
    // Inference preserves the id, so renumbering later is unaffected.
    *trajectory = std::move(inferred.first);
    AddTo(inference, inferred.second);
  }
  return Status::OK();
}

Result<std::vector<SemanticTrajectory>> BatchPipeline::Run(
    std::vector<RawDetection> detections) {
  report_ = PipelineReport{};
  report_.build.records_in = detections.size();
  SITM_ASSIGN_OR_RETURN(
      const TrajectoryStage stage,
      TrajectoryStage::Make(options_.builder, options_.rules,
                            options_.enrichment_graph,
                            options_.infer_hidden_passages,
                            options_.inference, options_.inference_graph));

  // --- Stage 1: group by object, ascending, so merging the shards in
  // order yields the sequential builder's (object, start time) order.
  SITM_ASSIGN_OR_RETURN(const std::vector<std::size_t> group_offsets,
                        PartitionByObject(detections));
  const std::size_t num_groups = group_offsets.size() - 1;
  report_.build.objects_seen = num_groups;

  // --- Stages 2+3 as one task graph: each shard is a build task chained
  // to a per-trajectory stage task, so enrichment of an early shard
  // overlaps the builds of later shards.
  const std::size_t per_shard = std::max<std::size_t>(
      static_cast<std::size_t>(1), options_.objects_per_shard);
  const std::size_t num_shards = (num_groups + per_shard - 1) / per_shard;
  report_.shards = num_shards;

  // Thread-safety: build task s sorts only its own objects' spans of
  // `detections` and writes only shards[s]; stage task s touches only
  // shards[s], after build task s by the graph edge. No locks — TSan
  // (ctest -L parallel) enforces this stays true.
  std::vector<ShardOutcome> shards(num_shards);
  TaskGraph graph;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const TaskId build = graph.AddTask(
        "pipeline/build",
        [this, &detections, &group_offsets, &shards, num_groups, per_shard,
         s] {
          const std::size_t end = std::min(num_groups, (s + 1) * per_shard);
          ShardOutcome& shard = shards[s];
          // Shard-local ids; the merge below renumbers them.
          TrajectoryId next_id(1);
          for (std::size_t g = s * per_shard; g < end; ++g) {
            shard.build_status = AssembleObject(
                options_.builder, detections.data() + group_offsets[g],
                detections.data() + group_offsets[g + 1], &next_id,
                &shard.trajectories, &shard.cleaning);
            if (!shard.build_status.ok()) break;
          }
        });
    if (!stage.enabled()) continue;
    const TaskId enrich =
        graph.AddTask("pipeline/enrich", [&stage, &shards, s] {
          ShardOutcome& shard = shards[s];
          // A failed build leaves nothing meaningful to enrich; the
          // merge reports the build failure first anyway.
          if (!shard.build_status.ok()) return;
          for (SemanticTrajectory& trajectory : shard.trajectories) {
            shard.stage_status = stage.Apply(&trajectory, &shard.enrichment,
                                             &shard.inference);
            if (!shard.stage_status.ok()) return;
          }
        });
    SITM_RETURN_IF_ERROR(graph.AddEdge(build, enrich));
  }
  SITM_RETURN_IF_ERROR(RunGraph(options_.executor, std::move(graph)));

  // --- Merge: failures in deterministic order (every build, then every
  // stage, each by shard), then counters and trajectories in shard
  // order, renumbered to the sequential builder's ids.
  for (const ShardOutcome& shard : shards) {
    SITM_RETURN_IF_ERROR(shard.build_status);
  }
  for (const ShardOutcome& shard : shards) {
    SITM_RETURN_IF_ERROR(shard.stage_status);
  }
  std::size_t total = 0;
  for (const ShardOutcome& shard : shards) total += shard.trajectories.size();
  std::vector<SemanticTrajectory> out;
  out.reserve(total);
  TrajectoryId next_id = options_.builder.first_trajectory_id;
  for (ShardOutcome& shard : shards) {
    report_.build += shard.cleaning;
    AddTo(&report_.enrichment, shard.enrichment);
    AddTo(&report_.inference, shard.inference);
    for (SemanticTrajectory& t : shard.trajectories) {
      t.set_id(next_id);
      next_id = TrajectoryId(next_id.value() + 1);
      out.push_back(std::move(t));
    }
  }
  report_.build.trajectories_out = out.size();
  return out;
}

}  // namespace sitm::core
