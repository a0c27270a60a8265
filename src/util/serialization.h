// Binary (de)serialization for model checkpoints. Little-endian host
// assumed (x86/ARM); a magic header with a version guards format drift.
//
// Every read is fallible: a TryRead* returns false and records a
// descriptive error (sticky; every later read also fails) instead of
// aborting, so corrupt checkpoint bytes are reported, never fatal.
#ifndef IMSR_UTIL_SERIALIZATION_H_
#define IMSR_UTIL_SERIALIZATION_H_

#include <cstdint>
#include <string>
#include <vector>

namespace imsr::util {

// Append-only binary buffer writer.
class BinaryWriter {
 public:
  void WriteInt64(int64_t value);
  void WriteFloat(float value);
  void WriteString(const std::string& value);
  void WriteFloatArray(const float* data, size_t count);
  void WriteBytes(const void* data, size_t size);

  const std::vector<uint8_t>& buffer() const { return buffer_; }

  // Durable atomic replace: writes to `path` + ".tmp", flushes and fsyncs,
  // then renames over `path`, so a crash at any point leaves either the
  // previous file or the new one — never a truncated mix. Returns false on
  // I/O failure; `error` (optional) receives a description.
  bool WriteToFileAtomic(const std::string& path,
                         std::string* error = nullptr) const;

 private:
  void Append(const void* data, size_t size);
  std::vector<uint8_t> buffer_;
};

// Sequential reader over a byte buffer.
class BinaryReader {
 public:
  explicit BinaryReader(std::vector<uint8_t> buffer);

  // Loads a file into a reader; returns false on I/O failure.
  static bool ReadFromFile(const std::string& path, BinaryReader* reader);

  // On truncation, a garbage length prefix, or a count mismatch these
  // record an error and return false without touching `out` beyond what
  // was already written. The error is sticky — after the first
  // failure every subsequent TryRead* fails too, so a parsing sequence can
  // check `ok()` once at the end.
  bool TryReadInt64(int64_t* out);
  bool TryReadFloat(float* out);
  bool TryReadString(std::string* out);
  bool TryReadFloatArray(float* data, size_t count);
  bool TryReadBytes(void* out, size_t size);
  // Advances past `size` bytes (e.g. an unknown section); fallible.
  bool TrySkip(size_t size);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  size_t position() const { return position_; }
  size_t remaining() const { return buffer_.size() - position_; }
  bool AtEnd() const { return position_ == buffer_.size(); }

  // The bytes at the current position (bounds already guaranteed by
  // `remaining()`); used to checksum a region before parsing it.
  const uint8_t* current() const { return buffer_.data() + position_; }

 private:
  // Records the first error and returns false.
  bool Fail(const std::string& message);

  std::vector<uint8_t> buffer_;
  size_t position_ = 0;
  std::string error_;
};

}  // namespace imsr::util

#endif  // IMSR_UTIL_SERIALIZATION_H_
