#include "util/serialization.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace imsr::util {

void BinaryWriter::Append(const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

void BinaryWriter::WriteInt64(int64_t value) { Append(&value, sizeof(value)); }

void BinaryWriter::WriteFloat(float value) { Append(&value, sizeof(value)); }

void BinaryWriter::WriteString(const std::string& value) {
  WriteInt64(static_cast<int64_t>(value.size()));
  Append(value.data(), value.size());
}

void BinaryWriter::WriteFloatArray(const float* data, size_t count) {
  WriteInt64(static_cast<int64_t>(count));
  Append(data, count * sizeof(float));
}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  Append(data, size);
}

bool BinaryWriter::WriteToFileAtomic(const std::string& path,
                                     std::string* error) const {
  const std::string tmp = path + ".tmp";
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + " " + tmp + ": " + std::strerror(errno);
    }
    return false;
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail("cannot open");
  size_t written = 0;
  while (written < buffer_.size()) {
    const ssize_t n =
        ::write(fd, buffer_.data() + written, buffer_.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return fail("cannot write");
    }
    written += static_cast<size_t>(n);
  }
  // The data must be on disk before the rename publishes it; otherwise a
  // crash could leave the *new* name pointing at a truncated file.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return fail("cannot fsync");
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return fail("cannot close");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    if (error != nullptr) {
      *error = "cannot rename " + tmp + " over " + path + ": " +
               std::strerror(errno);
    }
    return false;
  }
  // Best-effort directory fsync so the rename itself is durable.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return true;
}

BinaryReader::BinaryReader(std::vector<uint8_t> buffer)
    : buffer_(std::move(buffer)) {}

bool BinaryReader::ReadFromFile(const std::string& path,
                                BinaryReader* reader) {
  // Only regular files: directories open successfully on Linux but report
  // a garbage tellg() size (historically cast straight into a huge
  // allocation here).
  struct stat file_info;
  if (::stat(path.c_str(), &file_info) != 0 ||
      !S_ISREG(file_info.st_mode)) {
    return false;
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamsize size = in.tellg();
  // tellg() reports -1 on a stream error; casting that to size_t would
  // request a near-SIZE_MAX allocation.
  if (size < 0) return false;
  in.seekg(0);
  std::vector<uint8_t> buffer(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(buffer.data()), size);
  if (!in) return false;
  *reader = BinaryReader(std::move(buffer));
  return true;
}

bool BinaryReader::Fail(const std::string& message) {
  if (error_.empty()) {
    error_ = message + " (at byte " + std::to_string(position_) + " of " +
             std::to_string(buffer_.size()) + ")";
  }
  return false;
}

bool BinaryReader::TryReadBytes(void* out, size_t size) {
  if (!ok()) return false;
  // remaining() cannot wrap; comparing against it avoids the
  // `position_ + size` overflow a corrupt near-SIZE_MAX length would hit.
  if (size > remaining()) {
    return Fail("truncated buffer: need " + std::to_string(size) +
                " bytes, " + std::to_string(remaining()) + " remain");
  }
  std::memcpy(out, buffer_.data() + position_, size);
  position_ += size;
  return true;
}

bool BinaryReader::TrySkip(size_t size) {
  if (!ok()) return false;
  if (size > remaining()) {
    return Fail("truncated buffer: cannot skip " + std::to_string(size) +
                " bytes, " + std::to_string(remaining()) + " remain");
  }
  position_ += size;
  return true;
}

bool BinaryReader::TryReadInt64(int64_t* out) {
  return TryReadBytes(out, sizeof(*out));
}

bool BinaryReader::TryReadFloat(float* out) {
  return TryReadBytes(out, sizeof(*out));
}

bool BinaryReader::TryReadString(std::string* out) {
  int64_t size = 0;
  if (!TryReadInt64(&size)) return false;
  // Reject garbage lengths before allocating: a valid string can never be
  // longer than the bytes left in the buffer.
  if (size < 0 || static_cast<uint64_t>(size) > remaining()) {
    return Fail("corrupt string length " + std::to_string(size));
  }
  out->assign(reinterpret_cast<const char*>(buffer_.data() + position_),
              static_cast<size_t>(size));
  position_ += static_cast<size_t>(size);
  return true;
}

bool BinaryReader::TryReadFloatArray(float* data, size_t count) {
  int64_t stored = 0;
  if (!TryReadInt64(&stored)) return false;
  if (stored < 0 || static_cast<uint64_t>(stored) != count) {
    return Fail("float array size mismatch: stored " +
                std::to_string(stored) + ", expected " +
                std::to_string(count));
  }
  if (count > remaining() / sizeof(float)) {
    return Fail("truncated float array: " + std::to_string(count) +
                " floats do not fit in " + std::to_string(remaining()) +
                " bytes");
  }
  return TryReadBytes(data, count * sizeof(float));
}

}  // namespace imsr::util
