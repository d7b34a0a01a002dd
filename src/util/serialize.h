// Tiny binary (de)serialization used for model weight caching and the
// on-disk test corpus (src/corpus/).
//
// Format: little-endian POD writes. Not portable across endianness — the
// artifacts are per-machine, never shipped.
#ifndef DX_SRC_UTIL_SERIALIZE_H_
#define DX_SRC_UTIL_SERIALIZE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace dx {

class Tensor;

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  void WriteU32(uint32_t v) { WritePod(v); }
  void WriteU64(uint64_t v) { WritePod(v); }
  void WriteI64(int64_t v) { WritePod(v); }
  void WriteF32(float v) { WritePod(v); }
  void WriteF64(double v) { WritePod(v); }
  void WriteString(const std::string& s);
  void WriteFloats(const std::vector<float>& v);
  void WriteInts(const std::vector<int>& v);
  // One byte per element (bit-packing is not worth it at coverage-state sizes).
  void WriteBools(const std::vector<bool>& v);
  // WriteBools' format for a bitset: elements 0..n-1, element i being bit
  // i % 64 of words[i / 64].
  void WriteBits(const std::vector<uint64_t>& words, uint64_t n);
  // Shape extents + flat values; round-trips through ReadTensor.
  void WriteTensor(const Tensor& t);

 private:
  template <typename T>
  void WritePod(const T& v) {
    out_.write(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  std::ostream& out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in) : in_(in) {}

  uint32_t ReadU32() { return ReadPod<uint32_t>(); }
  uint64_t ReadU64() { return ReadPod<uint64_t>(); }
  int64_t ReadI64() { return ReadPod<int64_t>(); }
  float ReadF32() { return ReadPod<float>(); }
  double ReadF64() { return ReadPod<double>(); }
  std::string ReadString();
  std::vector<float> ReadFloats();
  std::vector<int> ReadInts();
  std::vector<bool> ReadBools();
  // ReadBools into a bitset laid out as WriteBits takes it (bits past the
  // count stay 0); `*n` receives the element count.
  std::vector<uint64_t> ReadBits(uint64_t* n);
  Tensor ReadTensor();

 private:
  template <typename T>
  T ReadPod() {
    T v{};
    in_.read(reinterpret_cast<char*>(&v), sizeof(T));
    if (!in_) {
      throw std::runtime_error("BinaryReader: truncated stream");
    }
    return v;
  }
  std::istream& in_;
};

}  // namespace dx

#endif  // DX_SRC_UTIL_SERIALIZE_H_
