#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/task_runner.h"
#include "core/builder.h"
#include "core/trajectory.h"
#include "storage/mapped_file.h"

namespace sitm::storage {

/// \brief EventStore: binary columnar persistence for the event-based
/// trajectory model (§3.3).
///
/// The SITM stores one tuple per cell/annotation *change*, not one per
/// tick — and the on-disk layout mirrors that: a store file is a
/// sequence of blocks, each holding one column per tuple field (object
/// id, cell id, start, duration, dictionary-encoded annotation sets),
/// with ids and timestamps delta-encoded as zigzag varints. Each block
/// carries a footer entry with its row count, min/max object id, and
/// min/max time, so readers prune whole blocks before touching their
/// bytes (predicate pushdown). The file ends in a checksummed footer
/// (annotation dictionary + block index) and a fixed trailer locating
/// it; the header pins magic, format version, and store kind.
///
/// Layout (all integers little-endian; varints are LEB128, signed ones
/// zigzag-mapped — see storage/columnar.h):
///
///   header   : magic u64, version u32, kind u32
///   blocks   : column payloads, back to back (per-kind layout below)
///   footer   : annotation dictionary + block index (offset, length,
///              rows, trajectories, min/max object, min/max time,
///              checksum per block) + optional sections (v2+)
///   trailer  : footer offset u64, footer length u64, footer checksum
///              u64, trailing magic u64
///
/// Version history:
///   1 — base format: dictionary + block index only.
///   2 — appends an optional-sections area to the footer: varint section
///       count, then per section a varint kind, varint byte length, and
///       the payload. Unknown section kinds are skipped (length-framed),
///       so v2 readers stay forward-compatible with future sections.
///       Section kind 1 is the secondary object-id index: for each
///       distinct object id (ascending, delta-encoded) the posting list
///       of block indices holding its rows (ascending, delta-encoded).
///       Point lookups touch exactly those blocks instead of relying on
///       per-block min/max pruning.
///   3 — per-block compression codecs and annotation bitmaps.
///       Every block payload now begins with a varint codec id
///       (BlockCodec) followed by codec-dependent bytes:
///         0 raw        the v2 column layout, unchanged;
///         1 packed     the same columns re-encoded with chunked
///                      frame-of-reference bitpacking (delta and
///                      dictionary-id columns shrink below one byte per
///                      value — storage/columnar.h);
///         2 lz         varint raw byte count, then an LZ77 stream of
///                      the raw (codec 0) column bytes;
///         3 packed+lz  read-only: varint packed byte count, then an
///                      LZ77 stream of the packed (codec 1) column
///                      bytes. Writers no longer emit it (it never beat
///                      lz on size or scan speed).
///       Unknown codec ids are Corruption. Block checksums cover the
///       stored payload (codec id included). Section kind 2 holds the
///       annotation term table and per-block bitmaps: a term list of
///       every distinct (kind, value) annotation in the file
///       (ascending), then one bitmap per block whose bit t is set iff
///       some annotation set referenced by the block contains term t —
///       a sound over-approximation annotation predicates prune with.
/// The writer emits only version 3, always with the object index and
/// with the bitmap section whenever the file has annotation terms.
/// Readers still accept versions 1 and 2 and codec 3; checked-in
/// fixtures in tests/data/ pin those bytes.
///
/// Corruption safety: every decode path is bounds-checked (Corruption,
/// never UB, on truncated or bit-flipped files), footer and blocks are
/// checksummed, and unknown versions/kinds/codecs are rejected.

/// Leading and trailing file magic ("SITMEVST" / "SITMTRLR" as bytes).
inline constexpr char kStoreMagic[8] = {'S', 'I', 'T', 'M',
                                        'E', 'V', 'S', 'T'};
inline constexpr char kTrailerMagic[8] = {'S', 'I', 'T', 'M',
                                          'T', 'R', 'L', 'R'};
/// Current on-disk format version.
inline constexpr std::uint32_t kStoreVersion = 3;
/// Oldest format version readers still accept.
inline constexpr std::uint32_t kMinStoreVersion = 1;
/// Footer section kinds (v2+).
inline constexpr std::uint64_t kSectionObjectIndex = 1;
inline constexpr std::uint64_t kSectionAnnotationBitmaps = 2;
/// Byte size of the fixed file header (magic + version + kind).
inline constexpr std::size_t kStoreHeaderSize = 16;
/// Byte size of the fixed file trailer.
inline constexpr std::size_t kStoreTrailerSize = 32;

/// Per-block compression codec a writer may choose (the varint id
/// leading every v3 block payload). See the version-3 layout notes above.
enum class BlockCodec : std::uint8_t {
  kRaw = 0,
  kPacked = 1,
  kLz = 2,
};

/// Human-readable codec name ("raw", "packed", ...).
const char* BlockCodecName(BlockCodec codec);

/// What a store file holds.
enum class StoreKind : std::uint32_t {
  /// Rows are core::RawDetection records (object, cell, start, end).
  kDetections = 1,
  /// Rows are presence-interval tuples grouped into
  /// core::SemanticTrajectory values (id, object, A_traj + per-tuple
  /// transition, cell, interval, annotation sets, inferred flag).
  kTrajectories = 2,
};

/// Writer knobs.
struct WriterOptions {
  /// Target tuple rows per block. Trajectories never span blocks, so a
  /// block closes at the first trajectory boundary at or past this many
  /// rows (a single longer trajectory gets an oversized block). The
  /// default balances the LZ codec's match window (bigger blocks
  /// compress better) against block-pruning granularity.
  std::size_t rows_per_block = 8192;
  /// Runner for parallel column encoding of large batches (borrowed;
  /// null encodes on the calling thread; entry points pass a
  /// sched::Executor). Output bytes are identical for every worker
  /// count: blocks are encoded independently and written in index
  /// order.
  TaskRunner* executor = nullptr;
  /// Per-block compression codec. kLz is the measured density winner
  /// on the bench datasets and the default.
  BlockCodec codec = BlockCodec::kLz;
};

/// Per-block index entry (also the unit of predicate pushdown).
struct BlockMeta {
  std::uint64_t offset = 0;  ///< payload start, absolute file offset
  std::uint64_t length = 0;  ///< payload bytes
  std::uint64_t rows = 0;    ///< tuple rows in the block
  std::uint64_t trajectories = 0;  ///< kTrajectories only (else 0)
  std::int64_t min_object = 0;     ///< min/max raw object id in block
  std::int64_t max_object = 0;
  std::int64_t min_time = 0;  ///< earliest tuple start (epoch seconds)
  std::int64_t max_time = 0;  ///< latest tuple end (epoch seconds)
  std::uint64_t checksum = 0;  ///< FNV-1a 64 over the payload
};

/// Aggregate counters of a writer (available any time; `file_bytes` is
/// final only after Finish()).
struct StoreStats {
  std::uint64_t rows = 0;
  std::uint64_t trajectories = 0;
  std::uint64_t blocks = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t dictionary_entries = 0;
  std::uint64_t file_bytes = 0;
};

/// \brief Append-only columnar writer with batched, parallel ingest.
///
/// Usage: Create -> Append (any number of batches, each split into
/// blocks and column-encoded — in parallel when an executor is set) ->
/// Finish (writes footer + trailer; the file is unreadable before
/// this). Append calls must match the store kind.
class EventStoreWriter {
 public:
  [[nodiscard]] static Result<EventStoreWriter> Create(const std::string& path,
                                         StoreKind kind,
                                         WriterOptions options = {});

  /// Movable, not copyable: the open file has one owner.
  EventStoreWriter() = default;

  /// Appends a detection batch (kDetections stores only). Rejects
  /// detections with end before start.
  [[nodiscard]] Status Append(const std::vector<core::RawDetection>& detections);

  /// Appends built trajectories (kTrajectories stores only). Rejects
  /// trajectories with empty traces — untrusted readers must never
  /// produce them, so writers must never persist them.
  [[nodiscard]] Status Append(const std::vector<core::SemanticTrajectory>& trajectories);

  /// Writes footer + trailer and closes the file. Idempotent failure:
  /// after an error the writer is unusable.
  [[nodiscard]] Status Finish();

  const StoreStats& stats() const { return stats_; }
  StoreKind kind() const { return kind_; }

 private:
  struct EncodedBlock;
  struct FileCloser {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };

  [[nodiscard]] Status WriteRaw(std::string_view bytes);
  /// Appends encoded blocks to the file in order and indexes them.
  [[nodiscard]] Status WriteBlocks(std::vector<EncodedBlock>& encoded);
  /// Registers an annotation set with content hash `hash` in the file
  /// dictionary, returning its index (stable across the file).
  std::uint32_t DictionaryId(const core::AnnotationSet& set,
                             std::uint64_t hash);
  /// DictionaryId of each set, in order.
  std::vector<std::uint32_t> DictionaryIds(
      const std::vector<const core::AnnotationSet*>& sets);

  std::unique_ptr<std::FILE, FileCloser> file_;
  StoreKind kind_ = StoreKind::kDetections;
  WriterOptions options_;
  std::uint64_t offset_ = 0;  // current end-of-file offset
  bool finished_ = false;
  std::vector<BlockMeta> blocks_;
  /// The file's annotation dictionary in id order (serialized at Finish,
  /// also feeds the v3 annotation-bitmap section).
  std::vector<core::AnnotationSet> dictionary_sets_;
  /// Interning index over dictionary_sets_ by content: an
  /// open-addressing table (power-of-two size, linear probing) whose
  /// slots hold 0 for empty or id + 1, and each set's content hash.
  std::vector<std::uint32_t> dictionary_slots_;
  std::vector<std::uint64_t> dictionary_hashes_;
  /// Secondary index under construction: one (object id, block index)
  /// pair per object per block, sorted into posting lists at Finish.
  std::vector<std::pair<std::int64_t, std::uint32_t>> object_blocks_;
  /// Per-block sorted-unique dictionary ids (v3 annotation bitmaps).
  std::vector<std::vector<std::uint32_t>> block_dictionary_ids_;
  StoreStats stats_;
};

/// Predicate pushed down into a scan. Blocks whose footer stats cannot
/// match are skipped without reading their bytes; surviving blocks are
/// decoded and filtered row-wise (kDetections) or trajectory-wise
/// (kTrajectories).
///
/// Time-window semantics (pinned by tests at block boundaries):
///  - the window [min_time, max_time] is CLOSED and both bounds are
///    INCLUSIVE: a row matches iff row.end >= min_time and
///    row.start <= max_time, so a tuple ending exactly at min_time or
///    starting exactly at max_time matches, and so does a block whose
///    footer max_time == min_time (single shared instant);
///  - an unset bound is open (no constraint on that side);
///  - an inverted window (max_time < min_time) denotes the EMPTY set and
///    matches no row and no block — it must never fall through to
///    span-straddling rows.
struct ScanOptions {
  /// Keep only these moving objects (empty = keep all). Must be sorted
  /// ascending and unique — row filtering binary-searches it, and
  /// CandidateBlocks unions the objects' posting lists in one pass.
  /// Multi-object pushdown: a planner with several admissible objects
  /// names them all here, so the store filters rows exactly instead of
  /// leaving a residual per-row object check to the caller.
  std::vector<ObjectId> objects;
  /// Keep only rows/trajectories whose [start, end] intersects the
  /// closed window [min_time, max_time]; an unset bound is open.
  std::optional<Timestamp> min_time;
  std::optional<Timestamp> max_time;

  /// Scan of a single object (the common point lookup).
  static ScanOptions ForObject(ObjectId object) {
    ScanOptions scan;
    scan.objects.push_back(object);
    return scan;
  }

  /// True iff both bounds are set and inverted (the empty window).
  bool EmptyWindow() const {
    return min_time.has_value() && max_time.has_value() &&
           *max_time < *min_time;
  }
};

/// \brief Zero-copy reader: maps the file (plain read fallback) and
/// decodes blocks on demand straight out of the mapping.
class EventStoreReader {
 public:
  /// Opens and validates header, trailer, and footer (checksum, version,
  /// kind, block bounds). Block payloads are only touched — and their
  /// checksums verified — when read.
  [[nodiscard]] static Result<EventStoreReader> Open(const std::string& path);

  StoreKind kind() const { return kind_; }
  std::size_t num_blocks() const { return blocks_.size(); }
  const BlockMeta& block(std::size_t i) const { return blocks_[i]; }
  const std::vector<BlockMeta>& blocks() const { return blocks_; }
  /// Total tuple rows across blocks.
  std::uint64_t rows() const { return rows_; }
  /// Total trajectories across blocks (0 for kDetections).
  std::uint64_t trajectories() const { return trajectories_; }
  std::uint64_t file_bytes() const { return file_.size(); }
  /// True when the file is actually mmap'd (false on the read fallback).
  bool is_mapped() const { return file_.is_mapped(); }
  /// Decoded annotation dictionary.
  const std::vector<core::AnnotationSet>& dictionary() const {
    return dictionary_;
  }

  /// On-disk format version of the opened file (1, 2, or 3).
  std::uint32_t version() const { return version_; }
  /// True when the file carries the v2 secondary object-id index.
  bool has_object_index() const { return has_object_index_; }
  /// True when the file carries the v3 annotation-bitmap section.
  bool has_annotation_bitmaps() const { return !annotation_terms_.empty(); }
  /// Footer checksum from the trailer. Finished stores are immutable,
  /// so this (with file_bytes) identifies the file's entire contents —
  /// the store half of a query-result cache key.
  std::uint64_t trailer_checksum() const { return trailer_checksum_; }

  /// \brief Bitmap pruning for annotation predicates: false only when
  /// the v3 annotation bitmaps prove no annotation set referenced by
  /// block `i` contains `kind:value` — in particular false for every
  /// block when the term appears nowhere in the file. True whenever the
  /// file carries no bitmaps (sound: absence of evidence prunes
  /// nothing).
  bool BlockMayContainAnnotation(std::size_t i, core::AnnotationKind kind,
                                 std::string_view value) const;

  /// Footer-stats pruning: false when block `i` cannot contain a match.
  bool BlockMatches(std::size_t i, const ScanOptions& scan) const;

  /// Blocks a scan must touch, ascending: when the scan names an object
  /// and the store carries the object index, exactly that object's
  /// posting list; otherwise every block — in both cases filtered by
  /// BlockMatches footer stats. This is the block set the full scans
  /// below iterate, exposed so external executors can stream it.
  std::vector<std::size_t> CandidateBlocks(const ScanOptions& scan) const;

  /// Full scans (all blocks, with pushdown).
  [[nodiscard]] Result<std::vector<core::RawDetection>> ReadDetections(
      const ScanOptions& scan = {}) const;
  [[nodiscard]] Result<std::vector<core::SemanticTrajectory>> ReadTrajectories(
      const ScanOptions& scan = {}) const;

  /// Block-wise scans, appending matches to `out`. Callers stream block
  /// by block without materializing the whole store.
  [[nodiscard]] Status ReadDetectionBlock(std::size_t i, const ScanOptions& scan,
                            std::vector<core::RawDetection>& out) const;
  [[nodiscard]] Status ReadTrajectoryBlock(
      std::size_t i, const ScanOptions& scan,
      std::vector<core::SemanticTrajectory>& out) const;

  /// Verifies every block checksum (footer integrity is already checked
  /// at Open) without decoding columns.
  [[nodiscard]] Status VerifyChecksums() const;

 private:
  [[nodiscard]] Result<std::string_view> BlockPayload(std::size_t i) const;

  MappedFile file_;
  StoreKind kind_ = StoreKind::kDetections;
  std::uint32_t version_ = kStoreVersion;
  bool has_object_index_ = false;
  std::uint64_t trailer_checksum_ = 0;
  std::vector<BlockMeta> blocks_;
  std::vector<core::AnnotationSet> dictionary_;
  /// v2 secondary index: object id -> ascending block indices.
  std::unordered_map<std::int64_t, std::vector<std::uint32_t>> object_index_;
  /// v3 annotation bitmaps: the term table, ascending by (kind, value),
  /// and one bitmap of annotation_terms_.size() bits per block (flat,
  /// bytes_per_bitmap bytes each, LSB first).
  std::vector<std::pair<core::AnnotationKind, std::string>> annotation_terms_;
  std::vector<std::uint8_t> annotation_bitmaps_;
  std::uint64_t rows_ = 0;
  std::uint64_t trajectories_ = 0;
};

}  // namespace sitm::storage

