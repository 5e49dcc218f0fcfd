#include "live/incremental_builder.h"

#include <algorithm>
#include <utility>

namespace sitm::live {

IncrementalBuilder::IncrementalBuilder(IncrementalOptions options)
    : options_(std::move(options)),
      next_id_(options_.builder.first_trajectory_id) {
  Result<core::TrajectoryStage> stage = core::TrajectoryStage::Make(
      options_.builder, options_.rules, options_.enrichment_graph,
      options_.infer_hidden_passages, options_.inference,
      options_.inference_graph);
  if (stage.ok()) {
    stage_ = *stage;
  } else {
    config_ = stage.status();
  }
}

Status IncrementalBuilder::Ingest(
    const std::vector<core::RawDetection>& batch,
    std::vector<core::SemanticTrajectory>* finalized) {
  SITM_RETURN_IF_ERROR(config_);
  stats_.records_in += batch.size();

  // Admission: lateness is judged against the watermark as of the
  // PREVIOUS batch — everything admitted here still sorts after every
  // already-consumed detection (consumed starts are strictly below
  // that watermark).
  for (const core::RawDetection& d : batch) {
    if (!d.object.valid() || !d.cell.valid()) {
      return Status::InvalidArgument(
          "IncrementalBuilder: detection with invalid object or cell id");
    }
    if (stats_.has_watermark && d.start < stats_.watermark) {
      ++stats_.late_dropped;
      continue;
    }
    ObjectState& state =
        objects_.try_emplace(d.object, options_.builder).first->second;
    state.pending.push_back(d);
    state.last_activity = ++activity_seq_;
    ++stats_.buffered_detections;
    if (!has_max_start_ || d.start > max_start_) {
      has_max_start_ = true;
      max_start_ = d.start;
    }
  }

  // Peaks are sampled at the post-admission high-water point — the
  // moment the buffer is largest — not only after the sweep drains it.
  UpdateFootprint();

  if (has_max_start_) {
    // The watermark never regresses: max_start_ is monotone and the
    // lateness bound is fixed.
    stats_.watermark = max_start_ - options_.allowed_lateness;
    stats_.has_watermark = true;
  }

  // Watermark sweep: EVERY object may have pending detections the new
  // watermark releases, and idle objects' open traces go stale purely
  // by time passing — so the sweep visits all of them, in id order for
  // a deterministic finalization sequence.
  if (stats_.has_watermark) {
    for (auto& [object, state] : objects_) {
      SITM_RETURN_IF_ERROR(ConsumeReady(object, state, stats_.watermark,
                                        /*consume_all=*/false, finalized));
      const core::Trace& open = state.assembler.open_trace();
      if (!open.empty() &&
          stats_.watermark - open.end() > options_.builder.session_gap) {
        SITM_RETURN_IF_ERROR(
            Finalize(object, state.assembler.Close(), finalized));
      }
    }
  }

  // Eviction: bound the tracked-object count by force-finalizing the
  // least-recently-active objects (ties broken by object id — the map
  // scan below is deterministic).
  while (options_.max_open_objects != 0 &&
         objects_.size() > options_.max_open_objects) {
    SITM_RETURN_IF_ERROR(EvictOne(finalized));
  }

  UpdateFootprint();
  return Status::OK();
}

Status IncrementalBuilder::Drain(
    std::vector<core::SemanticTrajectory>* finalized) {
  SITM_RETURN_IF_ERROR(config_);
  for (auto& [object, state] : objects_) {
    SITM_RETURN_IF_ERROR(ConsumeReady(object, state, Timestamp(),
                                      /*consume_all=*/true, finalized));
    SITM_RETURN_IF_ERROR(Finalize(object, state.assembler.Close(), finalized));
  }
  objects_.clear();
  stats_.buffered_detections = 0;
  UpdateFootprint();
  return Status::OK();
}

Status IncrementalBuilder::ConsumeReady(
    ObjectId object, ObjectState& state, Timestamp watermark, bool consume_all,
    std::vector<core::SemanticTrajectory>* out) {
  if (state.pending.empty()) return Status::OK();
  std::sort(state.pending.begin(), state.pending.end(), core::DetectionBefore);

  std::size_t consumed = 0;
  for (; consumed < state.pending.size() &&
         (consume_all || state.pending[consumed].start < watermark);
       ++consumed) {
    SITM_RETURN_IF_ERROR(
        Finalize(object, state.assembler.Push(state.pending[consumed]), out));
  }
  state.pending.erase(state.pending.begin(),
                      state.pending.begin() +
                          static_cast<std::ptrdiff_t>(consumed));
  stats_.buffered_detections -= consumed;
  stats_.cleaning += state.assembler.TakeCounters();
  return Status::OK();
}

Status IncrementalBuilder::Finalize(
    ObjectId object, core::Trace trace,
    std::vector<core::SemanticTrajectory>* out) {
  if (trace.empty()) return Status::OK();
  core::SemanticTrajectory trajectory(next_id_, object, std::move(trace),
                                      options_.builder.default_annotations);
  next_id_ = TrajectoryId(next_id_.value() + 1);
  SITM_RETURN_IF_ERROR(trajectory.Validate());
  core::EnrichmentReport enrichment;
  core::InferenceReport inference;
  SITM_RETURN_IF_ERROR(stage_.Apply(&trajectory, &enrichment, &inference));
  out->push_back(std::move(trajectory));
  ++stats_.finalized;
  return Status::OK();
}

Status IncrementalBuilder::EvictOne(
    std::vector<core::SemanticTrajectory>* out) {
  auto victim = objects_.end();
  for (auto it = objects_.begin(); it != objects_.end(); ++it) {
    if (victim == objects_.end() ||
        it->second.last_activity < victim->second.last_activity) {
      victim = it;  // map order breaks last_activity ties by object id
    }
  }
  if (victim == objects_.end()) return Status::OK();
  ++stats_.evicted_objects;
  ObjectState& state = victim->second;
  SITM_RETURN_IF_ERROR(ConsumeReady(victim->first, state, Timestamp(),
                                    /*consume_all=*/true, out));
  SITM_RETURN_IF_ERROR(Finalize(victim->first, state.assembler.Close(), out));
  objects_.erase(victim);
  return Status::OK();
}

void IncrementalBuilder::UpdateFootprint() {
  stats_.open_objects = objects_.size();
  stats_.peak_open_objects =
      std::max(stats_.peak_open_objects, stats_.open_objects);
  stats_.peak_buffered_detections =
      std::max(stats_.peak_buffered_detections, stats_.buffered_detections);
}

}  // namespace sitm::live
