// Wire format v1 of the persistence subsystem: versioned little-endian
// encodings of the streaming sketches, per-shard checkpoint files, and the
// checkpoint manifest.
//
// Layout (all integers little-endian; doubles as IEEE-754 u64 bit
// patterns, so every value round-trips bitwise):
//
//   file header (24 bytes, both file types)
//     u64  magic           "PIEPRST1"
//     u32  format version  1
//     u32  file type       1 = shard file, 2 = manifest
//     u32  estimator tier  EstimatorTierTag() of the writing binary
//     u32  header crc      CRC32C of the 20 bytes above
//
//   PPS sketch block ("PPS1")
//     u32  tag, i32 instance, f64 tau, u64 salt, u64 num_updates,
//     u64 entry_count,
//     keys slab    entry_count x u64, u32 CRC32C of the slab
//     weights slab entry_count x f64, u32 CRC32C of the slab
//   The slabs mirror the store's columnar layout: keys contiguous, then
//   weights, each independently checksummed. Entry order is arrival order,
//   which is what makes a serialize/deserialize round-trip bitwise.
//
//   shard file (file type 1)
//     header, u32 shard_index, u32 num_shards, u64 sketch_count,
//     sketch_count PPS blocks (ascending instance), footer
//
//   manifest (file type 2)
//     header, u64 seq, store options (i32 num_shards, f64 default_tau,
//     u64 salt, u32 coordinated, u64 override_count, override_count x
//     {i32 instance, f64 tau}), num_shards x {u64 file_size, u32 file_crc}
//     describing that generation's shard files, footer
//
//   footer (both file types)
//     u32 tag "FOOT", u64 body length, u32 CRC32C of every preceding byte
//
// Decoders treat their input as untrusted: every failure mode -- short
// buffer, bad magic/version/tag, CRC mismatch, counts that exceed the
// remaining bytes, values violating sketch invariants (duplicate keys,
// nonpositive/non-finite weights, weights below the PPS inclusion
// threshold) -- returns a typed Status::DataLoss, never a PIE_CHECK abort
// and never out-of-bounds access. tests/persist_test.cc sweeps truncations
// and bit flips over every byte offset under ASan/UBSan to enforce this.
//
// A shard file is checked in one order: its manifest entry (size and
// whole-file CRC, persist/checkpoint.cc), the footer, each slab's CRC,
// then the sketch invariants -- duplicate keys are found while
// StreamingPpsSketch::TryFromParts builds the key index.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "persist/wire.h"
#include "store/sketch_store.h"
#include "store/streaming_sketch.h"
#include "util/status.h"

namespace pie::persist {

inline constexpr uint64_t kMagic = 0x3154535250454950ull;  // "PIEPRST1"
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr uint32_t kFileTypeShard = 1;
inline constexpr uint32_t kFileTypeManifest = 2;
inline constexpr uint32_t kTagPps = 0x31535050u;   // "PPS1"
inline constexpr uint32_t kTagFoot = 0x544f4f46u;  // "FOOT"

/// Decoded common file header (magic/crc already verified).
struct FileHeader {
  uint32_t version = 0;
  uint32_t file_type = 0;
  uint32_t tier_tag = 0;
};

void WriteFileHeader(uint32_t file_type, uint32_t tier_tag, WireWriter* w);
Result<FileHeader> ReadFileHeader(WireReader* r);

/// Appends the footer: tag, body length (= bytes already in `w`), CRC32C
/// over those bytes. Call exactly once, last.
void WriteFooter(WireWriter* w);
/// Whole-file integrity check: footer present, body length consistent,
/// file CRC matches. Run before any section decoding, so decoders only
/// ever see files whose every byte checksummed clean (their own typed
/// errors then guard against crafted files with fixed-up CRCs).
/// `body_crc`, when given, is the caller's Crc32c of all but the last 4
/// bytes (the footer CRC's coverage), which saves a pass over the file.
Status VerifyFileIntegrity(std::string_view file,
                           std::optional<uint32_t> body_crc = std::nullopt);

// Sketch blocks. Serialize appends one block; Deserialize consumes one,
// validating tags, per-slab CRCs, and every sketch invariant.
void SerializePpsSketch(const StreamingPpsSketch& sketch, int instance,
                        WireWriter* w);
Result<std::pair<int, StreamingPpsSketch>> DeserializePpsSketch(
    WireReader* r);

/// One generation's shard file: every instance sketch one shard held.
std::string EncodeShardFile(uint32_t tier_tag, uint32_t shard_index,
                            uint32_t num_shards,
                            const std::map<int, StreamingPpsSketch>& sketches);

struct ShardFileData {
  uint32_t tier_tag = 0;
  uint32_t shard_index = 0;
  uint32_t num_shards = 0;
  std::vector<std::pair<int, StreamingPpsSketch>> sketches;
};
/// Verifies (VerifyFileIntegrity, passing `body_crc` on) and decodes a
/// shard file.
Result<ShardFileData> DecodeShardFile(
    std::string_view file, std::optional<uint32_t> body_crc = std::nullopt);

/// The manifest commits a checkpoint generation: it is written last, and a
/// generation is complete iff its manifest decodes clean and every listed
/// shard file matches its recorded (size, CRC).
struct ManifestShardEntry {
  uint64_t file_size = 0;
  uint32_t file_crc = 0;
};

struct Manifest {
  uint64_t seq = 0;
  uint32_t tier_tag = 0;
  SketchStoreOptions options;
  std::vector<ManifestShardEntry> shards;  // one per shard, index order
};

std::string EncodeManifest(const Manifest& manifest);
Result<Manifest> DecodeManifest(std::string_view file);

/// Generation file names: MANIFEST-%016x.pie / shard-%016x-%05u.pie, so a
/// directory listing sorts by generation.
std::string ManifestFileName(uint64_t seq);
std::string ShardFileName(uint64_t seq, uint32_t shard);

}  // namespace pie::persist
