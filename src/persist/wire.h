// Byte-level primitives of the persistence layer: CRC32C, bounds-checked
// little-endian buffer encode/decode, and crash-safe file writes.
//
// Everything on disk is little-endian with explicit widths (the wire
// format's only integer encodings are u8/u32/u64/i32 and IEEE-754 doubles
// carried as their u64 bit pattern), so serialized sketches round-trip
// bitwise-exactly: a weight is written as std::bit_cast<uint64_t> and read
// back as the identical double, never through a decimal detour.
//
// WireReader is the untrusted-input side: every read is bounds-checked,
// a failed read latches the reader into a failed state, and no read ever
// touches memory past the buffer -- the corruption sweep in
// tests/persist_test.cc drives truncated and bit-flipped files through
// the full deserialization stack under ASan/UBSan.
//
// WriteFileAtomic is the torn-write defense at the file level: payloads
// land in a temp file that is fsync'd, renamed into place, and followed by
// a directory fsync, so a crash leaves either the old file, no file, or
// the complete new file -- never a half-written one under its final name.
// (Checkpoint-level atomicity -- manifest written last -- is layered on
// top in persist/checkpoint.cc.)
//
// Since PR 10 every file touch goes through the pluggable FileSystem
// (util/fs.h): the helpers below keep their historical signatures against
// FileSystem::Default() and gain fs-explicit overloads, which is what lets
// FaultInjectingFs drive the crash-point torture harness through the whole
// persist stack.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/fs.h"
#include "util/status.h"

namespace pie::persist {

/// CRC-32C (Castagnoli polynomial, reflected), the checksum guarding every
/// slab and file of the wire format. Uses the SSE4.2 `crc32` instruction
/// when the CPU has it (checked once, at the first call) and
/// Crc32cPortable otherwise; both compute the same function, so the bytes
/// on disk do not depend on the host. `seed` chains partial checksums
/// (pass a previous return value): Crc32c(b, m, Crc32c(a, n)) is the CRC
/// of a followed by b.
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

/// The slice-by-8 software CRC-32C behind Crc32c on CPUs without SSE4.2.
/// Exposed so tests can compare both paths on any host.
uint32_t Crc32cPortable(const void* data, size_t size, uint32_t seed = 0);

/// Append-only little-endian encoder over a growable buffer.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  /// IEEE-754 bit pattern, so doubles round-trip bitwise.
  void F64(double v);
  void Bytes(const void* data, size_t n);

  size_t size() const { return buf_.size(); }
  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

  /// CRC32C of everything appended since offset `from` -- the per-slab and
  /// footer checksums are computed over the already-encoded bytes, so the
  /// checksum always covers exactly what lands on disk.
  uint32_t CrcSince(size_t from) const;

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer. Any
/// out-of-range read fails the reader permanently (ok() goes false, output
/// parameters are zeroed); callers may therefore decode a whole section
/// and check ok() once.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I32(int32_t* v);
  bool F64(double* v);
  bool Bytes(void* out, size_t n);
  /// Consumes the next `n` bytes without copying them: *at points at
  /// them inside the buffer. One bounds check covers a whole slab.
  bool Span(size_t n, const char** at);

  bool ok() const { return !failed_; }
  size_t offset() const { return off_; }
  size_t remaining() const { return data_.size() - off_; }

  /// CRC32C of the consumed range [from, offset()): verifies a slab or
  /// section right after decoding it.
  uint32_t CrcOver(size_t from) const;

 private:
  bool Take(void* out, size_t n);

  std::string_view data_;
  size_t off_ = 0;
  bool failed_ = false;
};

/// Reads a whole file into memory through `fs`. NotFound when the file
/// does not exist, Unavailable/Internal on other I/O errors (util/fs.h).
Result<std::string> ReadFileBytes(FileSystem& fs, const std::string& path);
Result<std::string> ReadFileBytes(const std::string& path);

/// Writes `payload` as `dir`/`name` crash-safely against the default
/// filesystem: temp file in the same directory, fsync, rename over the
/// final name, fsync the directory. Fs-explicit callers use
/// pie::WriteFileAtomic (util/fs.h) directly -- a persist-level overload
/// with the same signature would be ADL-ambiguous against it.
Status WriteFileAtomic(const std::string& dir, const std::string& name,
                       std::string_view payload);

/// Creates `dir` (and parents) if missing.
Status EnsureDirectory(FileSystem& fs, const std::string& dir);
Status EnsureDirectory(const std::string& dir);

}  // namespace pie::persist
