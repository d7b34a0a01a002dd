#include "src/util/serialize.h"

#include "src/tensor/tensor.h"

namespace dx {

namespace {
constexpr uint64_t kMaxReasonableLength = 1ULL << 32;
}  // namespace

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  out_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void BinaryWriter::WriteFloats(const std::vector<float>& v) {
  WriteU64(v.size());
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(float)));
}

void BinaryWriter::WriteInts(const std::vector<int>& v) {
  WriteU64(v.size());
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(int)));
}

void BinaryWriter::WriteBools(const std::vector<bool>& v) {
  WriteU64(v.size());
  // One buffered write: this runs on the per-batch checkpoint path, where a
  // per-element ostream call would dominate.
  std::string bytes(v.size(), '\0');
  for (size_t i = 0; i < v.size(); ++i) {
    bytes[i] = v[i] ? 1 : 0;
  }
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void BinaryWriter::WriteBits(const std::vector<uint64_t>& words, uint64_t n) {
  WriteU64(n);
  std::string bytes(n, '\0');
  for (uint64_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<char>((words[i / 64] >> (i % 64)) & 1);
  }
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void BinaryWriter::WriteTensor(const Tensor& t) {
  WriteInts(t.shape());
  WriteFloats(t.values());
}

std::string BinaryReader::ReadString() {
  const uint64_t n = ReadU64();
  if (n > kMaxReasonableLength) {
    throw std::runtime_error("BinaryReader: corrupt string length");
  }
  std::string s(n, '\0');
  in_.read(s.data(), static_cast<std::streamsize>(n));
  if (!in_) {
    throw std::runtime_error("BinaryReader: truncated string");
  }
  return s;
}

std::vector<float> BinaryReader::ReadFloats() {
  const uint64_t n = ReadU64();
  if (n > kMaxReasonableLength) {
    throw std::runtime_error("BinaryReader: corrupt float array length");
  }
  std::vector<float> v(n);
  in_.read(reinterpret_cast<char*>(v.data()),
           static_cast<std::streamsize>(n * sizeof(float)));
  if (!in_) {
    throw std::runtime_error("BinaryReader: truncated float array");
  }
  return v;
}

std::vector<int> BinaryReader::ReadInts() {
  const uint64_t n = ReadU64();
  if (n > kMaxReasonableLength) {
    throw std::runtime_error("BinaryReader: corrupt int array length");
  }
  std::vector<int> v(n);
  in_.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(int)));
  if (!in_) {
    throw std::runtime_error("BinaryReader: truncated int array");
  }
  return v;
}

std::vector<bool> BinaryReader::ReadBools() {
  const uint64_t n = ReadU64();
  if (n > kMaxReasonableLength) {
    throw std::runtime_error("BinaryReader: corrupt bool array length");
  }
  std::string bytes(n, '\0');
  in_.read(bytes.data(), static_cast<std::streamsize>(n));
  if (!in_) {
    throw std::runtime_error("BinaryReader: truncated bool array");
  }
  std::vector<bool> v(n);
  for (uint64_t i = 0; i < n; ++i) {
    v[i] = bytes[i] != 0;
  }
  return v;
}

std::vector<uint64_t> BinaryReader::ReadBits(uint64_t* n) {
  const std::vector<bool> flags = ReadBools();
  *n = flags.size();
  std::vector<uint64_t> words((flags.size() + 63) / 64, 0);
  for (size_t i = 0; i < flags.size(); ++i) {
    words[i / 64] |= static_cast<uint64_t>(flags[i]) << (i % 64);
  }
  return words;
}

Tensor BinaryReader::ReadTensor() {
  const Shape shape = ReadInts();
  std::vector<float> values = ReadFloats();
  if (shape.empty() && values.empty()) {
    return Tensor();  // Default-constructed (0-element) tensor.
  }
  if (static_cast<int64_t>(values.size()) != NumElements(shape)) {
    throw std::runtime_error("BinaryReader: tensor shape/value mismatch");
  }
  return Tensor(shape, std::move(values));
}

}  // namespace dx
