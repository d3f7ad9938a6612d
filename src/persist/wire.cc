#include "persist/wire.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#endif

namespace pie::persist {

// The slab encoders memcpy whole u64/f64 arrays; that is only the wire
// (little-endian) byte order on a little-endian host. Every supported
// target (x86_64, aarch64) is little-endian; a big-endian port would swap
// in the primitive encoders below.
static_assert(std::endian::native == std::endian::little,
              "pie_persist wire encoding assumes a little-endian host");

namespace {

/// Slice-by-8 CRC32C tables, built once: table[0] is the classic byte
/// table for the reflected Castagnoli polynomial, table[k] extends it by k
/// zero bytes.
struct Crc32cTables {
  uint32_t t[8][256];
  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (int k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xff] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t size, uint32_t seed) {
  const Crc32cTables& tb = Tables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  while (size >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    word ^= crc;  // low 4 bytes absorb the running crc
    crc = tb.t[7][word & 0xff] ^ tb.t[6][(word >> 8) & 0xff] ^
          tb.t[5][(word >> 16) & 0xff] ^ tb.t[4][(word >> 24) & 0xff] ^
          tb.t[3][(word >> 32) & 0xff] ^ tb.t[2][(word >> 40) & 0xff] ^
          tb.t[1][(word >> 48) & 0xff] ^ tb.t[0][word >> 56];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = tb.t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

namespace {

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

#if defined(__x86_64__) && defined(__GNUC__)
/// The SSE4.2 `crc32` instruction computes exactly this polynomial's
/// reflected update, 8 bytes per step (one dependent chain: ~3 cycles per
/// word, several times the table loop's speed).
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                      size_t size,
                                                      uint32_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t crc = ~seed;
  while (size >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    size -= 8;
  }
  auto crc32 = static_cast<uint32_t>(crc);
  while (size-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return ~crc32;
}
#endif

Crc32cFn SelectCrc32c() {
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  static const Crc32cFn crc32c = SelectCrc32c();
  return crc32c(data, size, seed);
}

void WireWriter::U32(uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, 4);
  buf_.append(bytes, 4);
}

void WireWriter::U64(uint64_t v) {
  char bytes[8];
  std::memcpy(bytes, &v, 8);
  buf_.append(bytes, 8);
}

void WireWriter::F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

void WireWriter::Bytes(const void* data, size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

uint32_t WireWriter::CrcSince(size_t from) const {
  return Crc32c(buf_.data() + from, buf_.size() - from);
}

bool WireReader::Take(void* out, size_t n) {
  if (failed_ || data_.size() - off_ < n) {
    failed_ = true;
    std::memset(out, 0, n);
    return false;
  }
  std::memcpy(out, data_.data() + off_, n);
  off_ += n;
  return true;
}

bool WireReader::U8(uint8_t* v) { return Take(v, 1); }
bool WireReader::U32(uint32_t* v) { return Take(v, 4); }
bool WireReader::U64(uint64_t* v) { return Take(v, 8); }

bool WireReader::I32(int32_t* v) {
  uint32_t raw = 0;
  const bool ok = U32(&raw);
  *v = static_cast<int32_t>(raw);
  return ok;
}

bool WireReader::F64(double* v) {
  uint64_t raw = 0;
  const bool ok = U64(&raw);
  *v = std::bit_cast<double>(raw);
  return ok;
}

bool WireReader::Bytes(void* out, size_t n) { return Take(out, n); }

bool WireReader::Span(size_t n, const char** at) {
  if (failed_ || data_.size() - off_ < n) {
    failed_ = true;
    *at = nullptr;
    return false;
  }
  *at = data_.data() + off_;
  off_ += n;
  return true;
}

uint32_t WireReader::CrcOver(size_t from) const {
  if (failed_ || from > off_) return 0;
  return Crc32c(data_.data() + from, off_ - from);
}

Result<std::string> ReadFileBytes(FileSystem& fs, const std::string& path) {
  return fs.ReadFile(path);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  return ReadFileBytes(FileSystem::Default(), path);
}

Status WriteFileAtomic(const std::string& dir, const std::string& name,
                       std::string_view payload) {
  return pie::WriteFileAtomic(FileSystem::Default(), dir, name, payload);
}

Status EnsureDirectory(FileSystem& fs, const std::string& dir) {
  return fs.CreateDirs(dir);
}

Status EnsureDirectory(const std::string& dir) {
  return EnsureDirectory(FileSystem::Default(), dir);
}

}  // namespace pie::persist
