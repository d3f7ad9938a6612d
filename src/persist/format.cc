#include "persist/format.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace pie::persist {

namespace {

Status Corrupt(const std::string& what) {
  return Status::DataLoss("persist: " + what);
}

/// Reads one `count x u64` keys slab + one `count x f64` weights slab,
/// each followed by its CRC, into `out` (keys then weights). The caller
/// has already bounded `count` against remaining(), so each slab is
/// bounds-checked once and copied out of the buffer only after its CRC
/// matched.
bool ReadSlabs(WireReader* r, uint64_t count,
               std::vector<WeightedItem>* out) {
  const size_t slab_bytes = static_cast<size_t>(count) * 8;
  const char* keys = nullptr;
  const char* weights = nullptr;
  uint32_t keys_crc = 0, weights_crc = 0;
  r->Span(slab_bytes, &keys);
  r->U32(&keys_crc);
  r->Span(slab_bytes, &weights);
  r->U32(&weights_crc);
  if (!r->ok() || Crc32c(keys, slab_bytes) != keys_crc ||
      Crc32c(weights, slab_bytes) != weights_crc) {
    return false;
  }
  out->resize(count);
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(&(*out)[i].key, keys + 8 * i, 8);
    std::memcpy(&(*out)[i].weight, weights + 8 * i, 8);
  }
  return true;
}

void WriteSlabs(const std::vector<WeightedItem>& items, WireWriter* w) {
  size_t from = w->size();
  for (const auto& item : items) w->U64(item.key);
  w->U32(w->CrcSince(from));
  from = w->size();
  for (const auto& item : items) w->F64(item.weight);
  w->U32(w->CrcSince(from));
}

}  // namespace

void WriteFileHeader(uint32_t file_type, uint32_t tier_tag, WireWriter* w) {
  const size_t from = w->size();
  w->U64(kMagic);
  w->U32(kFormatVersion);
  w->U32(file_type);
  w->U32(tier_tag);
  w->U32(w->CrcSince(from));
}

Result<FileHeader> ReadFileHeader(WireReader* r) {
  const size_t from = r->offset();
  uint64_t magic = 0;
  FileHeader header;
  r->U64(&magic);
  r->U32(&header.version);
  r->U32(&header.file_type);
  r->U32(&header.tier_tag);
  const uint32_t crc_actual = r->CrcOver(from);
  uint32_t crc = 0;
  if (!r->U32(&crc)) return Corrupt("file too short for header");
  if (magic != kMagic) return Corrupt("bad magic (not a PIEPRST1 file)");
  if (crc != crc_actual) return Corrupt("header CRC mismatch");
  if (header.version != kFormatVersion) {
    return Corrupt("unsupported format version " +
                   std::to_string(header.version));
  }
  if (header.file_type != kFileTypeShard &&
      header.file_type != kFileTypeManifest) {
    return Corrupt("unknown file type " + std::to_string(header.file_type));
  }
  return header;
}

void WriteFooter(WireWriter* w) {
  w->U32(kTagFoot);
  w->U64(static_cast<uint64_t>(w->size()) - 4);  // body excludes the tag
  w->U32(w->CrcSince(0));
}

Status VerifyFileIntegrity(std::string_view file,
                           std::optional<uint32_t> body_crc) {
  constexpr size_t kFooterSize = 16;  // tag u32 + body len u64 + crc u32
  if (file.size() < kFooterSize) return Corrupt("file too short for footer");
  WireReader r(file.substr(file.size() - kFooterSize));
  uint32_t tag = 0, crc = 0;
  uint64_t body_len = 0;
  r.U32(&tag);
  r.U64(&body_len);
  r.U32(&crc);
  if (tag != kTagFoot) return Corrupt("missing footer (truncated file?)");
  if (body_len != file.size() - kFooterSize) {
    return Corrupt("footer body length disagrees with file size");
  }
  if (crc != (body_crc ? *body_crc : Crc32c(file.data(), file.size() - 4))) {
    return Corrupt("file CRC mismatch");
  }
  return Status::OK();
}

void SerializePpsSketch(const StreamingPpsSketch& sketch, int instance,
                        WireWriter* w) {
  w->U32(kTagPps);
  w->I32(instance);
  w->F64(sketch.tau());
  w->U64(sketch.salt());
  w->U64(sketch.num_updates());
  w->U64(static_cast<uint64_t>(sketch.entries().size()));
  WriteSlabs(sketch.entries(), w);
}

Result<std::pair<int, StreamingPpsSketch>> DeserializePpsSketch(
    WireReader* r) {
  uint32_t tag = 0;
  int32_t instance = 0;
  double tau = 0;
  uint64_t salt = 0, num_updates = 0, entry_count = 0;
  r->U32(&tag);
  r->I32(&instance);
  r->F64(&tau);
  r->U64(&salt);
  r->U64(&num_updates);
  if (!r->U64(&entry_count)) return Corrupt("truncated PPS block header");
  if (tag != kTagPps) return Corrupt("bad PPS block tag");
  // Bound the allocation by the bytes actually present: each entry needs
  // 16 slab bytes, so a corrupted count can never trigger a huge resize.
  if (entry_count > r->remaining() / 16) {
    return Corrupt("PPS entry count exceeds remaining bytes");
  }
  if (entry_count > num_updates) {
    return Corrupt("PPS block with more entries than updates");
  }
  std::vector<WeightedItem> entries;
  if (!ReadSlabs(r, entry_count, &entries)) {
    return Corrupt("PPS slab truncated or CRC mismatch");
  }
  // TryFromParts checks the sketch invariants once: a finite positive
  // tau, finite positive weights at or above each key's inclusion
  // threshold, and distinct keys while it builds the key index.
  auto sketch = StreamingPpsSketch::TryFromParts(tau, salt, std::move(entries),
                                                 num_updates);
  if (!sketch.ok()) return Corrupt(sketch.status().message());
  return std::make_pair(static_cast<int>(instance), std::move(sketch).value());
}

std::string EncodeShardFile(
    uint32_t tier_tag, uint32_t shard_index, uint32_t num_shards,
    const std::map<int, StreamingPpsSketch>& sketches) {
  WireWriter w;
  WriteFileHeader(kFileTypeShard, tier_tag, &w);
  w.U32(shard_index);
  w.U32(num_shards);
  w.U64(static_cast<uint64_t>(sketches.size()));
  for (const auto& [instance, sketch] : sketches) {
    SerializePpsSketch(sketch, instance, &w);
  }
  WriteFooter(&w);
  return w.Take();
}

Result<ShardFileData> DecodeShardFile(std::string_view file,
                                      std::optional<uint32_t> body_crc) {
  if (Status s = VerifyFileIntegrity(file, body_crc); !s.ok()) return s;
  WireReader r(file);
  auto header = ReadFileHeader(&r);
  if (!header.ok()) return header.status();
  if (header->file_type != kFileTypeShard) {
    return Corrupt("expected a shard file");
  }
  ShardFileData data;
  data.tier_tag = header->tier_tag;
  uint64_t sketch_count = 0;
  r.U32(&data.shard_index);
  r.U32(&data.num_shards);
  if (!r.U64(&sketch_count)) return Corrupt("truncated shard file header");
  if (data.num_shards == 0 || data.shard_index >= data.num_shards) {
    return Corrupt("shard file with out-of-range shard index");
  }
  // A PPS block is at least 48 bytes (header + two slab CRCs).
  if (sketch_count > r.remaining() / 48) {
    return Corrupt("shard sketch count exceeds remaining bytes");
  }
  data.sketches.reserve(sketch_count);
  for (uint64_t i = 0; i < sketch_count; ++i) {
    auto sketch = DeserializePpsSketch(&r);
    if (!sketch.ok()) return sketch.status();
    if (!data.sketches.empty() &&
        sketch->first <= data.sketches.back().first) {
      return Corrupt("shard instances out of order");
    }
    data.sketches.push_back(std::move(sketch).value());
  }
  if (r.remaining() != 16) {  // exactly the footer must remain
    return Corrupt("trailing bytes after last shard sketch");
  }
  return data;
}

std::string EncodeManifest(const Manifest& manifest) {
  WireWriter w;
  WriteFileHeader(kFileTypeManifest, manifest.tier_tag, &w);
  w.U64(manifest.seq);
  w.I32(manifest.options.num_shards);
  w.F64(manifest.options.default_tau);
  w.U64(manifest.options.salt);
  w.U32(manifest.options.coordinated ? 1 : 0);
  w.U64(static_cast<uint64_t>(manifest.options.instance_tau.size()));
  for (const auto& [instance, tau] : manifest.options.instance_tau) {
    w.I32(instance);
    w.F64(tau);
  }
  for (const auto& shard : manifest.shards) {
    w.U64(shard.file_size);
    w.U32(shard.file_crc);
  }
  WriteFooter(&w);
  return w.Take();
}

Result<Manifest> DecodeManifest(std::string_view file) {
  if (Status s = VerifyFileIntegrity(file); !s.ok()) return s;
  WireReader r(file);
  auto header = ReadFileHeader(&r);
  if (!header.ok()) return header.status();
  if (header->file_type != kFileTypeManifest) {
    return Corrupt("expected a manifest file");
  }
  Manifest manifest;
  manifest.tier_tag = header->tier_tag;
  uint32_t coordinated = 0;
  uint64_t override_count = 0;
  r.U64(&manifest.seq);
  r.I32(&manifest.options.num_shards);
  r.F64(&manifest.options.default_tau);
  r.U64(&manifest.options.salt);
  r.U32(&coordinated);
  if (!r.U64(&override_count)) return Corrupt("truncated manifest header");
  if (manifest.options.num_shards <= 0) {
    return Corrupt("manifest with nonpositive shard count");
  }
  if (!(manifest.options.default_tau > 0) ||
      !std::isfinite(manifest.options.default_tau)) {
    return Corrupt("manifest with invalid default tau");
  }
  if (coordinated > 1) return Corrupt("manifest with invalid coordinated flag");
  manifest.options.coordinated = coordinated == 1;
  if (override_count > r.remaining() / 12) {
    return Corrupt("manifest override count exceeds remaining bytes");
  }
  for (uint64_t i = 0; i < override_count; ++i) {
    int32_t instance = 0;
    double tau = 0;
    r.I32(&instance);
    if (!r.F64(&tau)) return Corrupt("truncated manifest overrides");
    if (!(tau > 0) || !std::isfinite(tau)) {
      return Corrupt("manifest with invalid instance tau");
    }
    auto [it, inserted] =
        manifest.options.instance_tau.emplace(instance, tau);
    if (!inserted) return Corrupt("manifest with duplicate instance tau");
  }
  const auto num_shards = static_cast<uint64_t>(manifest.options.num_shards);
  if (num_shards > r.remaining() / 12) {
    return Corrupt("manifest shard table exceeds remaining bytes");
  }
  manifest.shards.resize(num_shards);
  for (auto& shard : manifest.shards) {
    r.U64(&shard.file_size);
    if (!r.U32(&shard.file_crc)) return Corrupt("truncated manifest shards");
  }
  if (r.remaining() != 16) {
    return Corrupt("trailing bytes after manifest shard table");
  }
  return manifest;
}

std::string ManifestFileName(uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "MANIFEST-%016llx.pie",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string ShardFileName(uint64_t seq, uint32_t shard) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "shard-%016llx-%05u.pie",
                static_cast<unsigned long long>(seq), shard);
  return buf;
}

}  // namespace pie::persist
