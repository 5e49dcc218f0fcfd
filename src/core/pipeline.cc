#include "core/pipeline.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "base/task_graph.h"

namespace sitm::core {
namespace {

/// What one build shard produced. Default state is an empty OK outcome
/// so the slot vector can be preallocated.
struct ShardOutcome {
  Status status;
  std::vector<SemanticTrajectory> trajectories;
  BuildReport report;
};

/// What enrich+infer produced for one trajectory of one shard.
struct StageOutcome {
  Status status;
  EnrichmentReport enrichment;
  InferenceReport inference;
};

void MergeBuildReports(BuildReport* into, const BuildReport& from) {
  into->records_in += from.records_in;
  into->zero_duration_dropped += from.zero_duration_dropped;
  into->overlaps_clipped += from.overlaps_clipped;
  into->contained_dropped += from.contained_dropped;
  into->graph_inconsistent_dropped += from.graph_inconsistent_dropped;
  into->merged_same_cell += from.merged_same_cell;
  into->objects_seen += from.objects_seen;
  into->trajectories_out += from.trajectories_out;
}

/// Stable partition of `detections` by object id, objects ascending:
/// an LSD radix sort on the id's offset from the smallest id, one pass
/// per 11-bit digit that varies. Returns the group offsets (each
/// object's detections are [offsets[g], offsets[g + 1]), in input
/// order), or InvalidArgument on an invalid object or cell id.
Result<std::vector<std::size_t>> PartitionByObject(
    std::vector<RawDetection>& detections) {
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  std::int64_t lowest = 0, highest = 0;
  for (std::size_t i = 0; i < detections.size(); ++i) {
    const RawDetection& d = detections[i];
    if (!d.object.valid() || !d.cell.valid()) {
      return Status::InvalidArgument(
          "BatchPipeline: detection with invalid object or cell id");
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

}  // namespace

Result<std::vector<SemanticTrajectory>> BatchPipeline::Run(
    std::vector<RawDetection> detections) {
  report_ = PipelineReport{};
  if (options_.builder.default_annotations.empty()) {
    // Parity with TrajectoryBuilder::Build, which rejects this even for
    // an empty detection set (Def. 3.1 requires a non-empty A_traj).
    return Status::InvalidArgument(
        "BatchPipeline: builder.default_annotations must be non-empty "
        "(Def. 3.1 requires a non-empty A_traj)");
  }
  const indoor::Nrg* enrich_graph = options_.enrichment_graph != nullptr
                                        ? options_.enrichment_graph
                                        : options_.builder.graph;
  if (!options_.rules.empty() && enrich_graph == nullptr) {
    return Status::InvalidArgument(
        "BatchPipeline: enrichment rules need enrichment_graph (or "
        "builder.graph)");
  }
  const indoor::Nrg* infer_graph = options_.inference_graph != nullptr
                                       ? options_.inference_graph
                                       : enrich_graph;
  if (options_.infer_hidden_passages && infer_graph == nullptr) {
    return Status::InvalidArgument(
        "BatchPipeline: infer_hidden_passages needs inference_graph (or "
        "enrichment_graph / builder.graph)");
  }

  // --- Stage 1: group by object (ascending, so shard merging preserves
  // the sequential builder's (object, start time) output order). The
  // partition is stable, so every builder sorts its object's detections
  // from the same input order as the sequential builder does.
  report_.build.records_in = detections.size();
  SITM_ASSIGN_OR_RETURN(const std::vector<std::size_t> group_offsets,
                        PartitionByObject(detections));
  const std::size_t num_groups = group_offsets.size() - 1;

  // --- Stages 2+3 as one task graph: each shard is a build task chained
  // to an enrich+infer task, so enrichment of an early shard overlaps
  // the builds of later shards instead of waiting behind a global
  // barrier (the `barrier_stages` knob restores the fork-join schedule
  // as an ablation baseline — same bytes out, different overlap).
  const std::size_t per_shard = std::max<std::size_t>(
      static_cast<std::size_t>(1), options_.objects_per_shard);
  const std::size_t num_shards = (num_groups + per_shard - 1) / per_shard;
  report_.shards = num_shards;
  const bool enrich = !options_.rules.empty();
  const bool infer = options_.infer_hidden_passages;

  // Thread-safety: tasks share `detections` and the graphs read-only and
  // write only their own shard's slots — shards[s] for build task s,
  // stage_outcomes[s] (sized inside the task) plus the in-place
  // trajectory updates for enrich task s, which the build->enrich edge
  // orders after the build's writes. No locks — TSan (ctest -L
  // parallel) enforces this stays true.
  std::vector<ShardOutcome> shards(num_shards);
  std::vector<std::vector<StageOutcome>> stage_outcomes(num_shards);

  TaskGraph graph;
  std::vector<TaskId> build_tasks(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    build_tasks[s] = graph.AddTask(
        "pipeline/build",
        [this, &detections, &group_offsets, &shards, num_groups, per_shard,
         s] {
          const std::size_t begin = s * per_shard;
          const std::size_t end = std::min(num_groups, begin + per_shard);
          BuilderOptions shard_options = options_.builder;
          shard_options.first_trajectory_id = TrajectoryId(1);
          TrajectoryBuilder builder(std::move(shard_options));
          ShardOutcome outcome;
          // One Build() per already-grouped object: the detections were
          // grouped in stage 1, so re-concatenating them only for the
          // builder to split them apart again would double the grouping
          // work. Group-local trajectory ids are renumbered by the
          // caller.
          const RawDetection* grouped = detections.data();
          for (std::size_t g = begin; g < end; ++g) {
            Result<std::vector<SemanticTrajectory>> built =
                builder.Build(std::vector<RawDetection>(
                    grouped + group_offsets[g],
                    grouped + group_offsets[g + 1]));
            MergeBuildReports(&outcome.report, builder.report());
            if (!built.ok()) {
              outcome.status = built.status();
              break;
            }
            outcome.trajectories.insert(
                outcome.trajectories.end(),
                std::make_move_iterator(built.value().begin()),
                std::make_move_iterator(built.value().end()));
          }
          shards[s] = std::move(outcome);
        });
  }
  if (enrich || infer) {
    TaskId barrier = 0;
    const bool barriered = options_.barrier_stages && num_shards > 1;
    if (barriered) {
      barrier = graph.AddTask("pipeline/barrier", nullptr);
      for (std::size_t s = 0; s < num_shards; ++s) {
        SITM_RETURN_IF_ERROR(graph.AddEdge(build_tasks[s], barrier));
      }
    }
    for (std::size_t s = 0; s < num_shards; ++s) {
      const TaskId enrich_task = graph.AddTask(
          "pipeline/enrich",
          [this, enrich, infer, enrich_graph, infer_graph, &shards,
           &stage_outcomes, s] {
            ShardOutcome& shard = shards[s];
            // A failed build leaves nothing meaningful to enrich; the
            // caller reports the build failure first anyway.
            if (!shard.status.ok()) return;
            std::vector<StageOutcome>& slots = stage_outcomes[s];
            slots.resize(shard.trajectories.size());
            for (std::size_t i = 0; i < shard.trajectories.size(); ++i) {
              StageOutcome& slot = slots[i];
              SemanticTrajectory& trajectory = shard.trajectories[i];
              if (enrich) {
                Result<EnrichmentReport> enriched = EnrichTrajectory(
                    &trajectory, *enrich_graph, options_.rules);
                if (!enriched.ok()) {
                  slot.status = enriched.status();
                  continue;
                }
                slot.enrichment = *enriched;
              }
              if (infer) {
                Result<std::pair<SemanticTrajectory, InferenceReport>>
                    inferred = InferHiddenPassages(trajectory, *infer_graph,
                                                   options_.inference);
                if (!inferred.ok()) {
                  slot.status = inferred.status();
                  continue;
                }
                // Inference preserves the (shard-local) id, so the
                // renumber pass below sees the same ids either way.
                trajectory = std::move(inferred->first);
                slot.inference = inferred->second;
              }
            }
          });
      SITM_RETURN_IF_ERROR(graph.AddEdge(
          barriered ? barrier : build_tasks[s], enrich_task));
    }
  }
  SITM_RETURN_IF_ERROR(RunGraph(options_.executor, std::move(graph)));

  // --- Merge: statuses and reports in deterministic (shard, then
  // trajectory) order, then renumber to the sequential builder's ids.
  for (const ShardOutcome& shard : shards) {
    if (!shard.status.ok()) return shard.status;
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    for (const StageOutcome& slot : stage_outcomes[s]) {
      if (!slot.status.ok()) return slot.status;
    }
  }

  std::vector<SemanticTrajectory> out;
  {
    const std::size_t records_in_total = report_.build.records_in;
    std::size_t total = 0;
    for (const ShardOutcome& shard : shards) {
      total += shard.trajectories.size();
    }
    out.reserve(total);
    TrajectoryId next_id = options_.builder.first_trajectory_id;
    for (ShardOutcome& shard : shards) {
      MergeBuildReports(&report_.build, shard.report);
      for (SemanticTrajectory& t : shard.trajectories) {
        t.set_id(next_id);
        next_id = TrajectoryId(next_id.value() + 1);
        out.push_back(std::move(t));
      }
    }
    // Per-shard records_in counters sum to the grouped total; keep the
    // whole-input figure computed before grouping.
    report_.build.records_in = records_in_total;
  }

  for (const std::vector<StageOutcome>& slots : stage_outcomes) {
    for (const StageOutcome& slot : slots) {
      report_.enrichment.tuples_touched += slot.enrichment.tuples_touched;
      report_.enrichment.annotations_added +=
          slot.enrichment.annotations_added;
      report_.inference.inserted += slot.inference.inserted;
      report_.inference.already_consistent +=
          slot.inference.already_consistent;
      report_.inference.ambiguous += slot.inference.ambiguous;
      report_.inference.disconnected += slot.inference.disconnected;
    }
  }
  return out;
}

}  // namespace sitm::core
