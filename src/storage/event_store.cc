#include "storage/event_store.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "sched/parallel.h"
#include "storage/columnar.h"

namespace sitm::storage {

namespace {

/// Serialized annotation set: varint count, then per annotation varint
/// kind + varint byte length + value bytes. Canonical because
/// AnnotationSet keeps its contents sorted and unique.
std::string EncodeAnnotationSet(const core::AnnotationSet& set) {
  std::string out;
  PutVarint64(out, set.size());
  for (const core::SemanticAnnotation& a : set.annotations()) {
    PutVarint64(out, static_cast<std::uint64_t>(a.kind));
    PutVarint64(out, a.value.size());
    out += a.value;
  }
  return out;
}

Result<core::AnnotationSet> DecodeAnnotationSet(ByteReader& reader) {
  SITM_ASSIGN_OR_RETURN(const std::uint64_t count, reader.ReadVarint64());
  if (count > reader.remaining()) {
    return Status::Corruption("EventStore: annotation set claims " +
                              std::to_string(count) + " entries with only " +
                              std::to_string(reader.remaining()) +
                              " bytes left");
  }
  core::AnnotationSet set;
  for (std::uint64_t i = 0; i < count; ++i) {
    SITM_ASSIGN_OR_RETURN(const std::uint64_t kind, reader.ReadVarint64());
    if (kind > static_cast<std::uint64_t>(core::AnnotationKind::kOther)) {
      return Status::Corruption("EventStore: unknown annotation kind " +
                                std::to_string(kind));
    }
    SITM_ASSIGN_OR_RETURN(const std::uint64_t length, reader.ReadVarint64());
    SITM_ASSIGN_OR_RETURN(const std::string_view value,
                          reader.ReadBytes(length));
    set.Add(static_cast<core::AnnotationKind>(kind), std::string(value));
  }
  return set;
}

/// On-disk id of the retired packed-then-LZ block codec: no longer
/// written, still decoded (its column bytes are packed, then LZ77).
constexpr std::uint64_t kCodecPackedLz = 3;

/// Wraps column bytes into the on-disk block payload: the codec id, then
/// the bytes as-is (kRaw/kPacked) or LZ-compressed behind their size
/// (kLz). `inner` must already be in the codec's column layout.
std::string WrapBlockPayload(BlockCodec codec, std::string inner) {
  std::string payload;
  PutVarint64(payload, static_cast<std::uint64_t>(codec));
  if (codec == BlockCodec::kLz) {
    PutVarint64(payload, inner.size());
    payload += CompressBytes(inner);
  } else {
    payload += inner;
  }
  return payload;
}

void PutSignedVarints(std::string& out,
                      const std::vector<std::int64_t>& values) {
  for (const std::int64_t v : values) PutSVarint64(out, v);
}

/// The column encoders of one inner layout: bitpacked for kPacked,
/// varints for kRaw and kLz.
struct ColumnLayout {
  void (*delta)(std::string&, const std::vector<std::int64_t>&);
  void (*unsigned_values)(std::string&, const std::vector<std::uint64_t>&);
  void (*signed_values)(std::string&, const std::vector<std::int64_t>&);
};

ColumnLayout ColumnLayoutFor(BlockCodec codec) {
  if (codec == BlockCodec::kPacked) {
    return {PutPackedDeltaColumn, PutPackedColumn, PutPackedSignedColumn};
  }
  return {PutDeltaColumn, PutVarintColumn, PutSignedVarints};
}

/// Content hash of an annotation set for interning without serializing
/// it: FNV-1a over each annotation's kind byte and value bytes, with a
/// terminator after every value.
std::uint64_t AnnotationSetHash(const core::AnnotationSet& set) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = kChecksumSeed;
  for (const core::SemanticAnnotation& a : set.annotations()) {
    h = (h ^ static_cast<std::uint8_t>(a.kind)) * kPrime;
    for (const char c : a.value) {
      h = (h ^ static_cast<unsigned char>(c)) * kPrime;
    }
    h *= kPrime;  // terminator byte 0
  }
  return h;
}

std::vector<std::int64_t> SortedUnique(std::vector<std::int64_t> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

void FoldRowStats(BlockMeta& meta, bool first, std::int64_t object,
                  std::int64_t start, std::int64_t end) {
  if (first) {
    meta.min_object = meta.max_object = object;
    meta.min_time = start;
    meta.max_time = end;
    return;
  }
  meta.min_object = std::min(meta.min_object, object);
  meta.max_object = std::max(meta.max_object, object);
  meta.min_time = std::min(meta.min_time, start);
  meta.max_time = std::max(meta.max_time, end);
}

/// Converts an unsigned on-disk duration back to a timestamp pair,
/// rejecting values that would overflow signed time arithmetic. All
/// arithmetic is unsigned (wrap-defined): `start` is untrusted and may
/// be any int64, including negative.
Result<Timestamp> EndFromDuration(std::int64_t start, std::uint64_t duration) {
  // INT64_MAX - start, computed mod 2^64: exact for every start, and
  // the mathematical value always fits in uint64.
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) -
      static_cast<std::uint64_t>(start);
  if (duration > limit) {
    return Status::Corruption("EventStore: duration overflows the epoch");
  }
  return Timestamp(static_cast<std::int64_t>(
      static_cast<std::uint64_t>(start) + duration));
}

/// The column bytes of one block after codec framing is stripped:
/// either a slice of the mapped payload (`offset` past the codec id) or
/// an owned decompressed buffer. `View` must be called on the object's
/// final resting place — the view may borrow from `owned`.
struct BlockColumns {
  std::string owned;
  std::size_t offset = 0;
  bool decompressed = false;
  bool packed = false;

  std::string_view View(std::string_view payload) const {
    return decompressed ? std::string_view(owned) : payload.substr(offset);
  }
};

/// Strips the v3 codec framing from a block payload. `max_raw_size`
/// caps the decompressed allocation a forged size field could demand —
/// callers derive it from the block's (already-validated) row and
/// trajectory counts.
Result<BlockColumns> DecodeBlockPayload(std::uint32_t version,
                                        std::string_view payload,
                                        std::uint64_t max_raw_size,
                                        std::size_t block_index) {
  BlockColumns out;
  if (version < 3) return out;
  ByteReader reader(payload);
  SITM_ASSIGN_OR_RETURN(const std::uint64_t codec_id, reader.ReadVarint64());
  if (codec_id > kCodecPackedLz) {
    return Status::Corruption("EventStore: unknown block codec " +
                              std::to_string(codec_id) + " in block " +
                              std::to_string(block_index));
  }
  out.packed = codec_id == static_cast<std::uint64_t>(BlockCodec::kPacked) ||
               codec_id == kCodecPackedLz;
  if (codec_id == static_cast<std::uint64_t>(BlockCodec::kRaw) ||
      codec_id == static_cast<std::uint64_t>(BlockCodec::kPacked)) {
    out.offset = reader.position();
    return out;
  }
  SITM_ASSIGN_OR_RETURN(const std::uint64_t raw_size, reader.ReadVarint64());
  if (raw_size > max_raw_size) {
    return Status::Corruption(
        "EventStore: block " + std::to_string(block_index) +
        " claims an implausible decompressed size " +
        std::to_string(raw_size));
  }
  SITM_ASSIGN_OR_RETURN(const std::string_view compressed,
                        reader.ReadBytes(reader.remaining()));
  Result<std::string> decompressed =
      DecompressBytes(compressed, static_cast<std::size_t>(raw_size));
  if (!decompressed.ok()) {
    return decompressed.status().WithContext("EventStore: block " +
                                             std::to_string(block_index));
  }
  out.owned = std::move(decompressed).value();
  out.decompressed = true;
  return out;
}

/// Column readers that pick the raw or bitpacked layout per `packed`.
Result<std::vector<std::int64_t>> ReadDeltaish(ByteReader& reader,
                                               std::size_t n, bool packed) {
  return packed ? ReadPackedDeltaColumn(reader, n)
                : ReadDeltaColumn(reader, n);
}
Result<std::vector<std::uint64_t>> ReadUnsignedish(ByteReader& reader,
                                                   std::size_t n,
                                                   bool packed) {
  return packed ? ReadPackedColumn(reader, n) : ReadVarintColumn(reader, n);
}

bool RowMatches(const ScanOptions& scan, ObjectId object, Timestamp start,
                Timestamp end) {
  if (!scan.objects.empty() &&
      !std::binary_search(scan.objects.begin(), scan.objects.end(), object)) {
    return false;
  }
  // The inverted (empty) window must be checked explicitly: a row whose
  // span straddles it (end >= min and start <= max) would otherwise
  // pass both one-sided tests despite the window containing no instant.
  if (scan.EmptyWindow()) return false;
  if (scan.min_time.has_value() && end < *scan.min_time) return false;
  if (scan.max_time.has_value() && start > *scan.max_time) return false;
  return true;
}

}  // namespace

/// One encoded block ready to be appended to the file (offset unset).
struct EventStoreWriter::EncodedBlock {
  std::string payload;
  BlockMeta meta;
  /// Distinct raw object ids in the block, ascending (feeds the
  /// secondary object-id index).
  std::vector<std::int64_t> objects;
  /// Distinct dictionary ids referenced by the block, ascending (feeds
  /// the v3 annotation bitmaps; empty for detection blocks).
  std::vector<std::uint32_t> dictionary_ids;
};

const char* BlockCodecName(BlockCodec codec) {
  switch (codec) {
    case BlockCodec::kRaw:
      return "raw";
    case BlockCodec::kPacked:
      return "packed";
    case BlockCodec::kLz:
      return "lz";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

Result<EventStoreWriter> EventStoreWriter::Create(const std::string& path,
                                                  StoreKind kind,
                                                  WriterOptions options) {
  if (kind != StoreKind::kDetections && kind != StoreKind::kTrajectories) {
    return Status::InvalidArgument("EventStore: unknown store kind");
  }
  if (options.rows_per_block == 0) {
    return Status::InvalidArgument("EventStore: rows_per_block must be >= 1");
  }
  if (options.codec > BlockCodec::kLz) {
    return Status::InvalidArgument("EventStore: unknown block codec");
  }
  EventStoreWriter writer;
  writer.file_.reset(std::fopen(path.c_str(), "wb"));
  if (writer.file_ == nullptr) {
    return Status::IOError("EventStore: cannot open '" + path +
                           "' for writing");
  }
  writer.kind_ = kind;
  writer.options_ = options;
  std::string header(kStoreMagic, sizeof(kStoreMagic));
  PutU32(header, kStoreVersion);
  PutU32(header, static_cast<std::uint32_t>(kind));
  SITM_RETURN_IF_ERROR(writer.WriteRaw(header));
  return writer;
}

Status EventStoreWriter::WriteRaw(std::string_view bytes) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("EventStore: writer is closed");
  }
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_.get()) !=
      bytes.size()) {
    return Status::IOError("EventStore: write failed at offset " +
                           std::to_string(offset_));
  }
  offset_ += bytes.size();
  return Status::OK();
}

std::uint32_t EventStoreWriter::DictionaryId(const core::AnnotationSet& set,
                                            std::uint64_t hash) {
  if (2 * (dictionary_sets_.size() + 1) > dictionary_slots_.size()) {
    // Keep the table at most half full: double it and re-place every id.
    dictionary_slots_.assign(
        std::max<std::size_t>(16, 2 * dictionary_slots_.size()), 0);
    const std::size_t mask = dictionary_slots_.size() - 1;
    for (std::uint32_t id = 0; id < dictionary_hashes_.size(); ++id) {
      std::size_t i = dictionary_hashes_[id] & mask;
      while (dictionary_slots_[i] != 0) i = (i + 1) & mask;
      dictionary_slots_[i] = id + 1;
    }
  }
  const std::size_t mask = dictionary_slots_.size() - 1;
  std::size_t i = hash & mask;
  for (; dictionary_slots_[i] != 0; i = (i + 1) & mask) {
    const std::uint32_t id = dictionary_slots_[i] - 1;
    if (dictionary_hashes_[id] == hash && dictionary_sets_[id] == set) {
      return id;
    }
  }
  const auto id = static_cast<std::uint32_t>(dictionary_sets_.size());
  dictionary_slots_[i] = id + 1;
  dictionary_hashes_.push_back(hash);
  dictionary_sets_.push_back(set);
  stats_.dictionary_entries = dictionary_sets_.size();
  return id;
}

std::vector<std::uint32_t> EventStoreWriter::DictionaryIds(
    const std::vector<const core::AnnotationSet*>& sets) {
  // The sets of a batch lie scattered over the heap. Hashing a chunk of
  // them first (prefetching a few sets ahead) lets their cache misses
  // overlap; the probes that follow then find each set in cache.
  constexpr std::size_t kChunk = 1024;
  constexpr std::size_t kAhead = 8;
  std::vector<std::uint32_t> ids(sets.size());
  std::vector<std::uint64_t> hashes(std::min(kChunk, sets.size()));
  for (std::size_t begin = 0; begin < sets.size(); begin += kChunk) {
    const std::size_t end = std::min(sets.size(), begin + kChunk);
    for (std::size_t i = begin; i < end; ++i) {
      if (i + 2 * kAhead < sets.size()) {
        __builtin_prefetch(sets[i + 2 * kAhead]);
      }
      if (i + kAhead < sets.size()) {
        __builtin_prefetch(sets[i + kAhead]->annotations().data());
      }
      hashes[i - begin] = AnnotationSetHash(*sets[i]);
    }
    for (std::size_t i = begin; i < end; ++i) {
      ids[i] = DictionaryId(*sets[i], hashes[i - begin]);
    }
  }
  return ids;
}

Status EventStoreWriter::WriteBlocks(std::vector<EncodedBlock>& encoded) {
  for (EncodedBlock& block : encoded) {
    block.meta.offset = offset_;
    SITM_RETURN_IF_ERROR(WriteRaw(block.payload));
    const auto block_index = static_cast<std::uint32_t>(blocks_.size());
    for (std::int64_t object : block.objects) {
      object_blocks_.emplace_back(object, block_index);
    }
    stats_.rows += block.meta.rows;
    stats_.trajectories += block.meta.trajectories;
    stats_.blocks += 1;
    stats_.payload_bytes += block.meta.length;
    blocks_.push_back(block.meta);
    block_dictionary_ids_.push_back(std::move(block.dictionary_ids));
  }
  return Status::OK();
}

Status EventStoreWriter::Append(
    const std::vector<core::RawDetection>& detections) {
  if (finished_) {
    return Status::FailedPrecondition("EventStore: writer already finished");
  }
  if (kind_ != StoreKind::kDetections) {
    return Status::InvalidArgument(
        "EventStore: detection batch appended to a trajectory store");
  }
  for (const core::RawDetection& d : detections) {
    if (d.end < d.start) {
      return Status::InvalidArgument(
          "EventStore: detection with end before start (object #" +
          std::to_string(d.object.value()) + ")");
    }
  }
  if (detections.empty()) return Status::OK();

  const std::size_t per_block = options_.rows_per_block;
  const std::size_t num_blocks = (detections.size() + per_block - 1) / per_block;
  const ColumnLayout layout = ColumnLayoutFor(options_.codec);
  // Thread-safety: each task encodes a disjoint row range of the
  // (read-only) input into its own EncodedBlock slot; the file is
  // written sequentially afterwards, so bytes on disk are identical
  // at every worker count.
  std::vector<EncodedBlock> encoded = sched::ParallelMap<EncodedBlock>(
      options_.executor, num_blocks, [&](std::size_t b) {
        const std::size_t begin = b * per_block;
        const std::size_t end = std::min(begin + per_block, detections.size());
        const std::size_t n = end - begin;
        std::vector<std::int64_t> objects, cells, starts;
        std::vector<std::uint64_t> durations;
        objects.reserve(n);
        cells.reserve(n);
        starts.reserve(n);
        durations.reserve(n);
        EncodedBlock block;
        for (std::size_t i = begin; i < end; ++i) {
          const core::RawDetection& d = detections[i];
          objects.push_back(d.object.value());
          cells.push_back(d.cell.value());
          starts.push_back(d.start.seconds_since_epoch());
          durations.push_back(
              static_cast<std::uint64_t>((d.end - d.start).seconds()));
          FoldRowStats(block.meta, i == begin, d.object.value(),
                       d.start.seconds_since_epoch(),
                       d.end.seconds_since_epoch());
        }
        std::string inner;
        layout.delta(inner, objects);
        layout.delta(inner, cells);
        layout.delta(inner, starts);
        layout.unsigned_values(inner, durations);
        block.payload = WrapBlockPayload(options_.codec, std::move(inner));
        block.meta.rows = n;
        block.meta.length = block.payload.size();
        block.meta.checksum = Checksum(block.payload);
        block.objects = SortedUnique(std::move(objects));
        return block;
      },
      /*grain=*/0, "store/encode");
  return WriteBlocks(encoded);
}

Status EventStoreWriter::Append(
    const std::vector<core::SemanticTrajectory>& trajectories) {
  if (finished_) {
    return Status::FailedPrecondition("EventStore: writer already finished");
  }
  if (kind_ != StoreKind::kTrajectories) {
    return Status::InvalidArgument(
        "EventStore: trajectory batch appended to a detection store");
  }
  if (trajectories.empty()) return Status::OK();

  // One pass validates the batch, cuts block boundaries (a block closes
  // at the first trajectory boundary at or past rows_per_block rows),
  // and lists the annotation sets in file order: per trajectory its
  // A_traj, then (stay, transition) per tuple.
  struct BlockRange {
    std::size_t traj_begin, traj_end;
    std::size_t row_begin, row_end;
  };
  std::vector<BlockRange> ranges;
  std::vector<const core::AnnotationSet*> sets;
  std::size_t rows = 0;
  for (std::size_t t = 0; t < trajectories.size(); ++t) {
    const core::SemanticTrajectory& trajectory = trajectories[t];
    // An empty trace must never reach the disk, or readers could not
    // reconstruct the trajectory's bounds.
    if (trajectory.trace().empty()) {
      return trajectory.trace().StartTime().status().WithContext(
          "EventStore: refusing to append trajectory #" +
          std::to_string(trajectory.id().value()));
    }
    if (ranges.empty() || ranges.back().row_end - ranges.back().row_begin >=
                              options_.rows_per_block) {
      ranges.push_back({t, t, rows, rows});
    }
    rows += trajectory.trace().size();
    ranges.back().traj_end = t + 1;
    ranges.back().row_end = rows;
    sets.push_back(&trajectory.annotations());
    for (const core::PresenceInterval& p : trajectory.trace().intervals()) {
      if (p.end() < p.start()) {
        return Status::InvalidArgument(
            "EventStore: presence interval with end before start");
      }
      sets.push_back(&p.annotations);
      sets.push_back(&p.transition_annotations);
    }
  }
  // Dictionary ids are inherently sequential (stable in first-seen
  // order), so they are assigned here, once the whole batch is known to
  // be valid: a rejected batch leaves no entries behind. Block encoding
  // reads them back by position.
  const std::vector<std::uint32_t> dictionary_ids = DictionaryIds(sets);

  const ColumnLayout layout = ColumnLayoutFor(options_.codec);
  // Thread-safety: same slot discipline as the detection path — one
  // BlockRange in, one EncodedBlock slot out, no shared writes.
  std::vector<EncodedBlock> encoded = sched::ParallelMap<EncodedBlock>(
      options_.executor, ranges.size(), [&](std::size_t b) {
        const BlockRange& range = ranges[b];
        const std::size_t num_trajectories = range.traj_end - range.traj_begin;
        const std::size_t num_rows = range.row_end - range.row_begin;
        std::vector<std::int64_t> ids, objects;
        std::vector<std::uint64_t> traj_dicts, traj_rows;
        ids.reserve(num_trajectories);
        objects.reserve(num_trajectories);
        traj_dicts.reserve(num_trajectories);
        traj_rows.reserve(num_trajectories);
        std::vector<std::int64_t> cells, transitions, starts;
        std::vector<std::uint64_t> durations, stay_dicts, transition_dicts;
        std::vector<bool> inferred;
        cells.reserve(num_rows);
        transitions.reserve(num_rows);
        starts.reserve(num_rows);
        durations.reserve(num_rows);
        stay_dicts.reserve(num_rows);
        transition_dicts.reserve(num_rows);
        inferred.reserve(num_rows);
        // This block's span of dictionary_ids: one per trajectory plus
        // two per tuple before it.
        const std::uint32_t* const dict_begin =
            dictionary_ids.data() + range.traj_begin + 2 * range.row_begin;
        const std::uint32_t* const dict_end =
            dict_begin + num_trajectories + 2 * num_rows;
        const std::uint32_t* dict = dict_begin;
        EncodedBlock block;
        bool first = true;
        for (std::size_t t = range.traj_begin; t < range.traj_end; ++t) {
          const core::SemanticTrajectory& trajectory = trajectories[t];
          const std::int64_t object = trajectory.object().value();
          ids.push_back(trajectory.id().value());
          objects.push_back(object);
          traj_dicts.push_back(*dict++);
          traj_rows.push_back(trajectory.trace().size());
          for (const core::PresenceInterval& p :
               trajectory.trace().intervals()) {
            const std::int64_t start = p.start().seconds_since_epoch();
            const std::int64_t end = p.end().seconds_since_epoch();
            cells.push_back(p.cell.value());
            transitions.push_back(p.transition.value());
            starts.push_back(start);
            durations.push_back(static_cast<std::uint64_t>(end - start));
            stay_dicts.push_back(*dict++);
            transition_dicts.push_back(*dict++);
            inferred.push_back(p.inferred);
            FoldRowStats(block.meta, first, object, start, end);
            first = false;
          }
        }
        std::string inner;
        layout.delta(inner, ids);
        layout.delta(inner, objects);
        layout.unsigned_values(inner, traj_dicts);
        layout.unsigned_values(inner, traj_rows);
        layout.delta(inner, cells);
        layout.signed_values(inner, transitions);
        layout.delta(inner, starts);
        layout.unsigned_values(inner, durations);
        layout.unsigned_values(inner, stay_dicts);
        layout.unsigned_values(inner, transition_dicts);
        PutBitColumn(inner, inferred);
        block.payload = WrapBlockPayload(options_.codec, std::move(inner));
        // A block references few distinct sets, mostly in short cycles
        // (stay, transition, stay, ...): skipping ids among the last few
        // kept leaves little to sort.
        for (const std::uint32_t* id = dict_begin; id != dict_end; ++id) {
          const auto recent =
              block.dictionary_ids.end() -
              static_cast<std::ptrdiff_t>(
                  std::min<std::size_t>(block.dictionary_ids.size(), 8));
          if (std::find(recent, block.dictionary_ids.end(), *id) ==
              block.dictionary_ids.end()) {
            block.dictionary_ids.push_back(*id);
          }
        }
        std::sort(block.dictionary_ids.begin(), block.dictionary_ids.end());
        block.dictionary_ids.erase(std::unique(block.dictionary_ids.begin(),
                                               block.dictionary_ids.end()),
                                   block.dictionary_ids.end());
        block.meta.rows = num_rows;
        block.meta.trajectories = num_trajectories;
        block.meta.length = block.payload.size();
        block.meta.checksum = Checksum(block.payload);
        block.objects = SortedUnique(std::move(objects));
        return block;
      },
      /*grain=*/0, "store/encode");
  return WriteBlocks(encoded);
}

Status EventStoreWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("EventStore: Finish called twice");
  }
  if (file_ == nullptr) {
    return Status::FailedPrecondition("EventStore: writer is closed");
  }
  const std::uint64_t footer_offset = offset_;
  std::string footer;
  PutVarint64(footer, dictionary_sets_.size());
  for (const core::AnnotationSet& set : dictionary_sets_) {
    footer += EncodeAnnotationSet(set);
  }
  PutVarint64(footer, blocks_.size());
  for (const BlockMeta& meta : blocks_) {
    PutVarint64(footer, meta.offset);
    PutVarint64(footer, meta.length);
    PutVarint64(footer, meta.rows);
    PutVarint64(footer, meta.trajectories);
    PutSVarint64(footer, meta.min_object);
    PutSVarint64(footer, meta.max_object);
    PutSVarint64(footer, meta.min_time);
    PutSVarint64(footer, meta.max_time);
    PutU64(footer, meta.checksum);
  }
  // Sorting the (object, block) pairs groups each object's posting list,
  // ascending in both.
  std::sort(object_blocks_.begin(), object_blocks_.end());
  std::string postings;
  std::uint64_t objects = 0;
  std::int64_t prev_object = 0;
  for (std::size_t i = 0; i < object_blocks_.size();) {
    const std::int64_t object = object_blocks_[i].first;
    std::size_t end = i;
    while (end < object_blocks_.size() &&
           object_blocks_[end].first == object) {
      ++end;
    }
    ++objects;
    PutSVarint64(postings, object - prev_object);
    prev_object = object;
    PutVarint64(postings, end - i);
    std::uint32_t prev_block = 0;
    for (; i < end; ++i) {
      PutVarint64(postings, object_blocks_[i].second - prev_block);
      prev_block = object_blocks_[i].second;
    }
  }
  std::string object_index;
  PutVarint64(object_index, objects);
  object_index += postings;

  // Term table: every distinct (kind, value) across the dictionary,
  // sorted ascending; per block one bit per term, set when the term
  // appears in a dictionary set the block references. Readers prune a
  // block for an annotation predicate when its bit is clear — sound
  // because trajectories never span blocks. A file without terms (every
  // detection store) gets no bitmap section.
  std::vector<std::pair<std::uint64_t, std::string>> terms;
  for (const core::AnnotationSet& set : dictionary_sets_) {
    for (const core::SemanticAnnotation& a : set.annotations()) {
      terms.emplace_back(static_cast<std::uint64_t>(a.kind), a.value);
    }
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  std::string bitmaps;
  if (!terms.empty()) {
    PutVarint64(bitmaps, terms.size());
    for (const auto& [kind, value] : terms) {
      PutVarint64(bitmaps, kind);
      PutVarint64(bitmaps, value.size());
      bitmaps += value;
    }
    PutVarint64(bitmaps, blocks_.size());
    const std::size_t bytes_per_bitmap = (terms.size() + 7) / 8;
    for (const std::vector<std::uint32_t>& dict_ids : block_dictionary_ids_) {
      std::string bitmap(bytes_per_bitmap, '\0');
      for (std::uint32_t id : dict_ids) {
        for (const core::SemanticAnnotation& a :
             dictionary_sets_[id].annotations()) {
          const auto it = std::lower_bound(
              terms.begin(), terms.end(),
              std::make_pair(static_cast<std::uint64_t>(a.kind), a.value));
          const auto term = static_cast<std::size_t>(it - terms.begin());
          bitmap[term / 8] = static_cast<char>(
              static_cast<unsigned char>(bitmap[term / 8]) |
              (1u << (term % 8)));
        }
      }
      bitmaps += bitmap;
    }
  }

  // Optional sections: count, then (kind, byte length, payload) per
  // section. Length framing lets readers skip unknown kinds.
  PutVarint64(footer, bitmaps.empty() ? 1 : 2);
  PutVarint64(footer, kSectionObjectIndex);
  PutVarint64(footer, object_index.size());
  footer += object_index;
  if (!bitmaps.empty()) {
    PutVarint64(footer, kSectionAnnotationBitmaps);
    PutVarint64(footer, bitmaps.size());
    footer += bitmaps;
  }
  SITM_RETURN_IF_ERROR(WriteRaw(footer));
  std::string trailer;
  PutU64(trailer, footer_offset);
  PutU64(trailer, footer.size());
  PutU64(trailer, Checksum(footer));
  trailer.append(kTrailerMagic, sizeof(kTrailerMagic));
  SITM_RETURN_IF_ERROR(WriteRaw(trailer));
  finished_ = true;
  stats_.file_bytes = offset_;
  const int rc = std::fclose(file_.release());
  if (rc != 0) return Status::IOError("EventStore: close failed");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

Result<EventStoreReader> EventStoreReader::Open(const std::string& path) {
  EventStoreReader reader;
  SITM_ASSIGN_OR_RETURN(reader.file_, MappedFile::Open(path));
  const std::string_view file = reader.file_.view();
  if (file.size() < kStoreHeaderSize + kStoreTrailerSize) {
    return Status::Corruption("EventStore: '" + path +
                              "' is too short to be a store file");
  }
  if (std::memcmp(file.data(), kStoreMagic, sizeof(kStoreMagic)) != 0) {
    return Status::Corruption("EventStore: bad magic in '" + path + "'");
  }
  ByteReader header(file.data() + sizeof(kStoreMagic),
                    kStoreHeaderSize - sizeof(kStoreMagic));
  SITM_ASSIGN_OR_RETURN(const std::uint32_t version, header.ReadU32());
  if (version < kMinStoreVersion || version > kStoreVersion) {
    return Status::Corruption("EventStore: unsupported format version " +
                              std::to_string(version));
  }
  reader.version_ = version;
  SITM_ASSIGN_OR_RETURN(const std::uint32_t kind, header.ReadU32());
  if (kind != static_cast<std::uint32_t>(StoreKind::kDetections) &&
      kind != static_cast<std::uint32_t>(StoreKind::kTrajectories)) {
    return Status::Corruption("EventStore: unknown store kind " +
                              std::to_string(kind));
  }
  reader.kind_ = static_cast<StoreKind>(kind);

  ByteReader trailer(file.data() + file.size() - kStoreTrailerSize,
                     kStoreTrailerSize);
  SITM_ASSIGN_OR_RETURN(const std::uint64_t footer_offset, trailer.ReadU64());
  SITM_ASSIGN_OR_RETURN(const std::uint64_t footer_length, trailer.ReadU64());
  SITM_ASSIGN_OR_RETURN(const std::uint64_t footer_checksum,
                        trailer.ReadU64());
  SITM_ASSIGN_OR_RETURN(const std::string_view trailer_magic,
                        trailer.ReadBytes(sizeof(kTrailerMagic)));
  if (std::memcmp(trailer_magic.data(), kTrailerMagic,
                  sizeof(kTrailerMagic)) != 0) {
    return Status::Corruption(
        "EventStore: missing trailer (truncated or unfinished file)");
  }
  const std::uint64_t payload_end = file.size() - kStoreTrailerSize;
  if (footer_offset < kStoreHeaderSize || footer_offset > payload_end ||
      footer_length > payload_end - footer_offset ||
      footer_offset + footer_length != payload_end) {
    return Status::Corruption("EventStore: footer bounds out of range");
  }
  const std::string_view footer_bytes =
      file.substr(footer_offset, footer_length);
  if (Checksum(footer_bytes) != footer_checksum) {
    return Status::Corruption("EventStore: footer checksum mismatch");
  }
  // The footer checksum covers the dictionary and the full block index
  // (which itself carries every block checksum), so it uniquely
  // identifies the finished file's contents — callers use it as a
  // cache key for query results over this store.
  reader.trailer_checksum_ = footer_checksum;

  ByteReader footer(footer_bytes);
  SITM_ASSIGN_OR_RETURN(const std::uint64_t dict_count, footer.ReadVarint64());
  if (dict_count > footer.remaining()) {
    return Status::Corruption("EventStore: dictionary count out of range");
  }
  reader.dictionary_.reserve(dict_count);
  for (std::uint64_t i = 0; i < dict_count; ++i) {
    SITM_ASSIGN_OR_RETURN(core::AnnotationSet set, DecodeAnnotationSet(footer));
    reader.dictionary_.push_back(std::move(set));
  }
  SITM_ASSIGN_OR_RETURN(const std::uint64_t num_blocks, footer.ReadVarint64());
  if (num_blocks > footer.remaining()) {
    return Status::Corruption("EventStore: block count out of range");
  }
  reader.blocks_.reserve(num_blocks);
  for (std::uint64_t i = 0; i < num_blocks; ++i) {
    BlockMeta meta;
    SITM_ASSIGN_OR_RETURN(meta.offset, footer.ReadVarint64());
    SITM_ASSIGN_OR_RETURN(meta.length, footer.ReadVarint64());
    SITM_ASSIGN_OR_RETURN(meta.rows, footer.ReadVarint64());
    SITM_ASSIGN_OR_RETURN(meta.trajectories, footer.ReadVarint64());
    SITM_ASSIGN_OR_RETURN(meta.min_object, footer.ReadSVarint64());
    SITM_ASSIGN_OR_RETURN(meta.max_object, footer.ReadSVarint64());
    SITM_ASSIGN_OR_RETURN(meta.min_time, footer.ReadSVarint64());
    SITM_ASSIGN_OR_RETURN(meta.max_time, footer.ReadSVarint64());
    SITM_ASSIGN_OR_RETURN(meta.checksum, footer.ReadU64());
    if (meta.offset < kStoreHeaderSize || meta.offset > footer_offset ||
        meta.length > footer_offset - meta.offset) {
      return Status::Corruption("EventStore: block " + std::to_string(i) +
                                " bounds out of range");
    }
    // Every row occupies at least one byte in each of its columns, so a
    // forged row count larger than the payload cannot be honest — reject
    // it here rather than letting decode attempt a giant allocation.
    if (meta.rows > meta.length) {
      return Status::Corruption("EventStore: block " + std::to_string(i) +
                                " row count exceeds payload size");
    }
    if (meta.trajectories > meta.rows) {
      return Status::Corruption("EventStore: block " + std::to_string(i) +
                                " has more trajectories than rows");
    }
    reader.rows_ += meta.rows;
    reader.trajectories_ += meta.trajectories;
    reader.blocks_.push_back(meta);
  }
  // v2+: optional length-framed sections. Unknown kinds are skipped so
  // files written by future minor revisions stay readable.
  if (version >= 2) {
    SITM_ASSIGN_OR_RETURN(const std::uint64_t num_sections,
                          footer.ReadVarint64());
    if (num_sections > footer.remaining()) {
      return Status::Corruption("EventStore: section count out of range");
    }
    for (std::uint64_t s = 0; s < num_sections; ++s) {
      SITM_ASSIGN_OR_RETURN(const std::uint64_t section_kind,
                            footer.ReadVarint64());
      SITM_ASSIGN_OR_RETURN(const std::uint64_t section_length,
                            footer.ReadVarint64());
      SITM_ASSIGN_OR_RETURN(const std::string_view section_bytes,
                            footer.ReadBytes(section_length));
      if (section_kind == kSectionAnnotationBitmaps) {
        if (!reader.annotation_terms_.empty()) {
          return Status::Corruption(
              "EventStore: duplicate annotation bitmap section");
        }
        ByteReader section(section_bytes);
        SITM_ASSIGN_OR_RETURN(const std::uint64_t num_terms,
                              section.ReadVarint64());
        // Every term occupies at least two bytes (kind + length), so a
        // count beyond the remaining bytes is forged.
        if (num_terms == 0 || num_terms > section.remaining()) {
          return Status::Corruption(
              "EventStore: annotation term count out of range");
        }
        std::vector<std::pair<core::AnnotationKind, std::string>> terms;
        terms.reserve(num_terms);
        for (std::uint64_t t = 0; t < num_terms; ++t) {
          SITM_ASSIGN_OR_RETURN(const std::uint64_t term_kind,
                                section.ReadVarint64());
          if (term_kind >
              static_cast<std::uint64_t>(core::AnnotationKind::kOther)) {
            return Status::Corruption(
                "EventStore: unknown annotation kind in term table");
          }
          SITM_ASSIGN_OR_RETURN(const std::uint64_t value_length,
                                section.ReadVarint64());
          SITM_ASSIGN_OR_RETURN(const std::string_view value,
                                section.ReadBytes(value_length));
          std::pair<core::AnnotationKind, std::string> term(
              static_cast<core::AnnotationKind>(term_kind),
              std::string(value));
          if (!terms.empty() && terms.back() >= term) {
            return Status::Corruption(
                "EventStore: annotation terms not strictly ascending");
          }
          terms.push_back(std::move(term));
        }
        SITM_ASSIGN_OR_RETURN(const std::uint64_t bitmap_blocks,
                              section.ReadVarint64());
        if (bitmap_blocks != reader.blocks_.size()) {
          return Status::Corruption(
              "EventStore: annotation bitmap block count mismatch");
        }
        const std::size_t bytes_per_bitmap = (terms.size() + 7) / 8;
        if (section.remaining() != bitmap_blocks * bytes_per_bitmap) {
          return Status::Corruption(
              "EventStore: annotation bitmap section size mismatch");
        }
        SITM_ASSIGN_OR_RETURN(const std::string_view bitmap_bytes,
                              section.ReadBytes(section.remaining()));
        reader.annotation_terms_ = std::move(terms);
        reader.annotation_bitmaps_.assign(bitmap_bytes.begin(),
                                          bitmap_bytes.end());
        continue;
      }
      if (section_kind != kSectionObjectIndex) continue;
      if (reader.has_object_index_) {
        return Status::Corruption("EventStore: duplicate object index");
      }
      ByteReader section(section_bytes);
      SITM_ASSIGN_OR_RETURN(const std::uint64_t num_objects,
                            section.ReadVarint64());
      // Every object entry occupies at least two bytes (id delta +
      // posting count), so a count beyond the remaining bytes is forged.
      if (num_objects > section.remaining()) {
        return Status::Corruption(
            "EventStore: object index count out of range");
      }
      std::int64_t object = 0;
      bool first_object = true;
      for (std::uint64_t o = 0; o < num_objects; ++o) {
        SITM_ASSIGN_OR_RETURN(const std::int64_t delta,
                              section.ReadSVarint64());
        if (!first_object && delta <= 0) {
          return Status::Corruption(
              "EventStore: object index ids not strictly ascending");
        }
        object += delta;
        first_object = false;
        SITM_ASSIGN_OR_RETURN(const std::uint64_t num_postings,
                              section.ReadVarint64());
        if (num_postings == 0 || num_postings > reader.blocks_.size()) {
          return Status::Corruption(
              "EventStore: object posting list size out of range");
        }
        std::vector<std::uint32_t> postings;
        postings.reserve(num_postings);
        std::uint64_t block = 0;
        for (std::uint64_t p = 0; p < num_postings; ++p) {
          SITM_ASSIGN_OR_RETURN(const std::uint64_t block_delta,
                                section.ReadVarint64());
          if (p > 0 && block_delta == 0) {
            return Status::Corruption(
                "EventStore: object postings not strictly ascending");
          }
          block += block_delta;
          if (block >= reader.blocks_.size()) {
            return Status::Corruption(
                "EventStore: object posting names block " +
                std::to_string(block) + " of " +
                std::to_string(reader.blocks_.size()));
          }
          postings.push_back(static_cast<std::uint32_t>(block));
        }
        reader.object_index_.emplace(object, std::move(postings));
      }
      if (!section.empty()) {
        return Status::Corruption(
            "EventStore: trailing bytes in object index section");
      }
      reader.has_object_index_ = true;
    }
  }
  if (!footer.empty()) {
    return Status::Corruption("EventStore: trailing bytes in footer");
  }
  return reader;
}

std::vector<std::size_t> EventStoreReader::CandidateBlocks(
    const ScanOptions& scan) const {
  std::vector<std::size_t> out;
  if (scan.EmptyWindow()) return out;
  if (!scan.objects.empty() && has_object_index_) {
    // Union of the per-object posting lists. Each list is strictly
    // ascending, so sort + unique over the concatenation restores scan
    // order; every surviving block is then re-checked against the full
    // scan (time window, bounds).
    std::vector<std::uint32_t> postings;
    for (ObjectId object : scan.objects) {
      const auto it = object_index_.find(object.value());
      if (it == object_index_.end()) continue;
      postings.insert(postings.end(), it->second.begin(), it->second.end());
    }
    std::sort(postings.begin(), postings.end());
    postings.erase(std::unique(postings.begin(), postings.end()),
                   postings.end());
    out.reserve(postings.size());
    for (std::uint32_t b : postings) {
      if (BlockMatches(b, scan)) out.push_back(b);
    }
    return out;
  }
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (BlockMatches(i, scan)) out.push_back(i);
  }
  return out;
}

Result<std::string_view> EventStoreReader::BlockPayload(std::size_t i) const {
  const BlockMeta& meta = blocks_[i];
  const std::string_view payload =
      file_.view().substr(meta.offset, meta.length);
  if (Checksum(payload) != meta.checksum) {
    return Status::Corruption("EventStore: block " + std::to_string(i) +
                              " checksum mismatch");
  }
  return payload;
}

bool EventStoreReader::BlockMatches(std::size_t i,
                                    const ScanOptions& scan) const {
  const BlockMeta& meta = blocks_[i];
  if (scan.EmptyWindow()) return false;
  if (!scan.objects.empty()) {
    // scan.objects is sorted: the block survives iff some requested id
    // falls inside its [min_object, max_object] envelope.
    const auto it = std::lower_bound(scan.objects.begin(), scan.objects.end(),
                                     ObjectId(meta.min_object));
    if (it == scan.objects.end() || it->value() > meta.max_object) {
      return false;
    }
  }
  if (scan.min_time.has_value() &&
      meta.max_time < scan.min_time->seconds_since_epoch()) {
    return false;
  }
  if (scan.max_time.has_value() &&
      meta.min_time > scan.max_time->seconds_since_epoch()) {
    return false;
  }
  return true;
}

Status EventStoreReader::ReadDetectionBlock(
    std::size_t i, const ScanOptions& scan,
    std::vector<core::RawDetection>& out) const {
  if (kind_ != StoreKind::kDetections) {
    return Status::FailedPrecondition(
        "EventStore: not a detection store");
  }
  if (i >= blocks_.size()) {
    return Status::InvalidArgument("EventStore: block index " +
                                   std::to_string(i) + " out of range");
  }
  if (!BlockMatches(i, scan)) return Status::OK();
  SITM_ASSIGN_OR_RETURN(const std::string_view payload, BlockPayload(i));
  const auto n = static_cast<std::size_t>(blocks_[i].rows);
  // Honest raw columns never exceed ~10 varint bytes per value; the cap
  // bounds what a forged decompressed-size field can allocate.
  SITM_ASSIGN_OR_RETURN(
      const BlockColumns columns,
      DecodeBlockPayload(version_, payload,
                         blocks_[i].rows * 80 + blocks_[i].trajectories * 48 +
                             64,
                         i));
  ByteReader reader(columns.View(payload));
  SITM_ASSIGN_OR_RETURN(const std::vector<std::int64_t> objects,
                        ReadDeltaish(reader, n, columns.packed));
  SITM_ASSIGN_OR_RETURN(const std::vector<std::int64_t> cells,
                        ReadDeltaish(reader, n, columns.packed));
  SITM_ASSIGN_OR_RETURN(const std::vector<std::int64_t> starts,
                        ReadDeltaish(reader, n, columns.packed));
  SITM_ASSIGN_OR_RETURN(const std::vector<std::uint64_t> durations,
                        ReadUnsignedish(reader, n, columns.packed));
  if (!reader.empty()) {
    return Status::Corruption("EventStore: trailing bytes in block " +
                              std::to_string(i));
  }
  for (std::size_t r = 0; r < n; ++r) {
    SITM_ASSIGN_OR_RETURN(const Timestamp end,
                          EndFromDuration(starts[r], durations[r]));
    const core::RawDetection detection(ObjectId(objects[r]), CellId(cells[r]),
                                       Timestamp(starts[r]), end);
    if (RowMatches(scan, detection.object, detection.start, detection.end)) {
      out.push_back(detection);
    }
  }
  return Status::OK();
}

Status EventStoreReader::ReadTrajectoryBlock(
    std::size_t i, const ScanOptions& scan,
    std::vector<core::SemanticTrajectory>& out) const {
  if (kind_ != StoreKind::kTrajectories) {
    return Status::FailedPrecondition(
        "EventStore: not a trajectory store");
  }
  if (i >= blocks_.size()) {
    return Status::InvalidArgument("EventStore: block index " +
                                   std::to_string(i) + " out of range");
  }
  if (!BlockMatches(i, scan)) return Status::OK();
  SITM_ASSIGN_OR_RETURN(const std::string_view payload, BlockPayload(i));
  const auto rows = static_cast<std::size_t>(blocks_[i].rows);
  const auto num_trajectories =
      static_cast<std::size_t>(blocks_[i].trajectories);
  SITM_ASSIGN_OR_RETURN(
      const BlockColumns columns,
      DecodeBlockPayload(version_, payload,
                         blocks_[i].rows * 80 + blocks_[i].trajectories * 48 +
                             64,
                         i));
  ByteReader reader(columns.View(payload));
  SITM_ASSIGN_OR_RETURN(const std::vector<std::int64_t> traj_ids,
                        ReadDeltaish(reader, num_trajectories, columns.packed));
  SITM_ASSIGN_OR_RETURN(
      const std::vector<std::int64_t> traj_objects,
      ReadDeltaish(reader, num_trajectories, columns.packed));
  SITM_ASSIGN_OR_RETURN(
      const std::vector<std::uint64_t> traj_dicts,
      ReadUnsignedish(reader, num_trajectories, columns.packed));
  SITM_ASSIGN_OR_RETURN(
      const std::vector<std::uint64_t> traj_rows,
      ReadUnsignedish(reader, num_trajectories, columns.packed));
  std::uint64_t row_sum = 0;
  for (std::uint64_t r : traj_rows) {
    if (r == 0) {
      return Status::Corruption(
          "EventStore: trajectory with zero rows in block " +
          std::to_string(i));
    }
    // Overflow-proof: row_sum <= rows here, so the subtraction cannot
    // wrap, and a forged giant count cannot wrap the running sum.
    if (r > static_cast<std::uint64_t>(rows) - row_sum) {
      return Status::Corruption(
          "EventStore: trajectory row counts exceed block rows in block " +
          std::to_string(i));
    }
    row_sum += r;
  }
  if (row_sum != rows) {
    return Status::Corruption(
        "EventStore: trajectory row counts do not sum to block rows in "
        "block " +
        std::to_string(i));
  }
  SITM_ASSIGN_OR_RETURN(const std::vector<std::int64_t> cells,
                        ReadDeltaish(reader, rows, columns.packed));
  std::vector<std::int64_t> transitions;
  if (columns.packed) {
    SITM_ASSIGN_OR_RETURN(transitions, ReadPackedSignedColumn(reader, rows));
  } else {
    transitions.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      SITM_ASSIGN_OR_RETURN(const std::int64_t transition,
                            reader.ReadSVarint64());
      transitions.push_back(transition);
    }
  }
  SITM_ASSIGN_OR_RETURN(const std::vector<std::int64_t> starts,
                        ReadDeltaish(reader, rows, columns.packed));
  SITM_ASSIGN_OR_RETURN(const std::vector<std::uint64_t> durations,
                        ReadUnsignedish(reader, rows, columns.packed));
  SITM_ASSIGN_OR_RETURN(const std::vector<std::uint64_t> stay_dicts,
                        ReadUnsignedish(reader, rows, columns.packed));
  SITM_ASSIGN_OR_RETURN(const std::vector<std::uint64_t> transition_dicts,
                        ReadUnsignedish(reader, rows, columns.packed));
  SITM_ASSIGN_OR_RETURN(const std::vector<bool> inferred,
                        ReadBitColumn(reader, rows));
  if (!reader.empty()) {
    return Status::Corruption("EventStore: trailing bytes in block " +
                              std::to_string(i));
  }
  auto dict_at = [this](std::uint64_t id) -> Result<core::AnnotationSet> {
    if (id >= dictionary_.size()) {
      return Status::Corruption("EventStore: dictionary index " +
                                std::to_string(id) + " out of range");
    }
    return dictionary_[id];
  };
  std::size_t row = 0;
  for (std::size_t t = 0; t < num_trajectories; ++t) {
    std::vector<core::PresenceInterval> intervals;
    intervals.reserve(static_cast<std::size_t>(traj_rows[t]));
    for (std::uint64_t k = 0; k < traj_rows[t]; ++k, ++row) {
      SITM_ASSIGN_OR_RETURN(const Timestamp end,
                            EndFromDuration(starts[row], durations[row]));
      const auto interval = qsr::TimeInterval::Make(Timestamp(starts[row]),
                                                    end);
      if (!interval.ok()) {
        return Status::Corruption("EventStore: invalid interval in block " +
                                  std::to_string(i));
      }
      core::PresenceInterval p(BoundaryId(transitions[row]),
                               CellId(cells[row]), *interval);
      SITM_ASSIGN_OR_RETURN(p.annotations, dict_at(stay_dicts[row]));
      SITM_ASSIGN_OR_RETURN(p.transition_annotations,
                            dict_at(transition_dicts[row]));
      p.inferred = inferred[row];
      intervals.push_back(std::move(p));
    }
    SITM_ASSIGN_OR_RETURN(core::AnnotationSet annotations,
                          dict_at(traj_dicts[t]));
    core::SemanticTrajectory trajectory(
        TrajectoryId(traj_ids[t]), ObjectId(traj_objects[t]),
        core::Trace(std::move(intervals)), std::move(annotations));
    // Trajectory-level pushdown: traces are non-empty by construction
    // here (zero-row trajectories were rejected above), so the checked
    // bounds cannot fail.
    SITM_ASSIGN_OR_RETURN(const Timestamp start,
                          trajectory.trace().StartTime());
    SITM_ASSIGN_OR_RETURN(const Timestamp end, trajectory.trace().EndTime());
    if (RowMatches(scan, trajectory.object(), start, end)) {
      out.push_back(std::move(trajectory));
    }
  }
  return Status::OK();
}

Result<std::vector<core::RawDetection>> EventStoreReader::ReadDetections(
    const ScanOptions& scan) const {
  if (kind_ != StoreKind::kDetections) {
    return Status::FailedPrecondition("EventStore: not a detection store");
  }
  std::vector<core::RawDetection> out;
  for (std::size_t i : CandidateBlocks(scan)) {
    SITM_RETURN_IF_ERROR(ReadDetectionBlock(i, scan, out));
  }
  return out;
}

Result<std::vector<core::SemanticTrajectory>>
EventStoreReader::ReadTrajectories(const ScanOptions& scan) const {
  if (kind_ != StoreKind::kTrajectories) {
    return Status::FailedPrecondition("EventStore: not a trajectory store");
  }
  std::vector<core::SemanticTrajectory> out;
  for (std::size_t i : CandidateBlocks(scan)) {
    SITM_RETURN_IF_ERROR(ReadTrajectoryBlock(i, scan, out));
  }
  return out;
}

bool EventStoreReader::BlockMayContainAnnotation(std::size_t i,
                                                 core::AnnotationKind kind,
                                                 std::string_view value) const {
  // No bitmap section (pre-v3 file, or no annotation terms): every block
  // may match — the conservative answer.
  if (annotation_terms_.empty() || i >= blocks_.size()) return true;
  const auto it = std::lower_bound(
      annotation_terms_.begin(), annotation_terms_.end(),
      std::make_pair(kind, std::string(value)),
      [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first < b.first : a.second < b.second;
      });
  if (it == annotation_terms_.end() || it->first != kind ||
      it->second != value) {
    // The term table covers every annotation in the file: a term absent
    // from it appears in no block at all.
    return false;
  }
  const auto term =
      static_cast<std::size_t>(it - annotation_terms_.begin());
  const std::size_t bytes_per_bitmap = (annotation_terms_.size() + 7) / 8;
  const std::size_t byte = i * bytes_per_bitmap + term / 8;
  return (static_cast<unsigned char>(annotation_bitmaps_[byte]) >>
          (term % 8)) &
         1u;
}

Status EventStoreReader::VerifyChecksums() const {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    SITM_RETURN_IF_ERROR(BlockPayload(i).status());
  }
  return Status::OK();
}

}  // namespace sitm::storage
