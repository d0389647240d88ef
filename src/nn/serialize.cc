#include "nn/serialize.h"

#include <cstring>
#include <fstream>

#include "util/check.h"

namespace nn {
namespace {

constexpr char kMagic[4] = {'A', 'F', 'P', 'M'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes =
    sizeof(kMagic) + sizeof(std::uint32_t) + sizeof(std::uint64_t);

template <typename T>
void AppendRaw(std::vector<std::uint8_t>& out, const T& value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
T ReadRaw(std::span<const std::uint8_t> bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

}  // namespace

std::size_t FlatParamsWireSize(std::size_t count) {
  return kHeaderBytes + count * sizeof(float);
}

void AppendFlatParams(std::vector<std::uint8_t>& out,
                      std::span<const float> params) {
  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  AppendRaw(out, kVersion);
  AppendRaw(out, static_cast<std::uint64_t>(params.size()));
  const auto* data = reinterpret_cast<const std::uint8_t*>(params.data());
  out.insert(out.end(), data, data + params.size() * sizeof(float));
}

namespace {

// Validates the AFPM block at `*offset` and returns the byte extent of its
// float payload without copying anything. Shared by the copying and
// zero-copy parse forms so they reject identical inputs identically.
std::span<const std::uint8_t> ValidateFlatParams(
    std::span<const std::uint8_t> bytes, std::size_t* offset) {
  AF_CHECK(offset != nullptr);
  AF_CHECK_LE(*offset, bytes.size()) << "parse offset past end of buffer";
  std::span<const std::uint8_t> rest = bytes.subspan(*offset);
  // Every failure names the offending absolute byte offset so a corrupt
  // checkpoint or captured frame is locatable without a hex dump.
  AF_CHECK_GE(rest.size(), kHeaderBytes)
      << "truncated AFPM header at byte offset " << *offset << ": need "
      << kHeaderBytes << " bytes, have " << rest.size();
  AF_CHECK(std::memcmp(rest.data(), kMagic, sizeof(kMagic)) == 0)
      << "bad AFPM magic at byte offset " << *offset;
  const auto version = ReadRaw<std::uint32_t>(rest, sizeof(kMagic));
  AF_CHECK_EQ(version, kVersion)
      << "unsupported AFPM version at byte offset "
      << *offset + sizeof(kMagic);
  const auto count =
      ReadRaw<std::uint64_t>(rest, sizeof(kMagic) + sizeof(version));
  // Bounds-check before allocating: a corrupt count must not trigger an
  // attempted multi-terabyte allocation.
  const std::size_t available = rest.size() - kHeaderBytes;
  AF_CHECK_LE(count, available / sizeof(float))
      << "truncated AFPM payload at byte offset " << *offset + kHeaderBytes
      << ": header declares " << count << " floats but only " << available
      << " bytes follow";
  return rest.subspan(kHeaderBytes,
                      static_cast<std::size_t>(count) * sizeof(float));
}

}  // namespace

std::vector<float> ParseFlatParams(std::span<const std::uint8_t> bytes,
                                   std::size_t* offset) {
  const std::span<const std::uint8_t> payload =
      ValidateFlatParams(bytes, offset);
  std::vector<float> params(payload.size() / sizeof(float));
  if (!params.empty()) {
    std::memcpy(params.data(), payload.data(), payload.size());
  }
  *offset += FlatParamsWireSize(params.size());
  return params;
}

std::optional<std::span<const float>> TryParseFlatParamsView(
    std::span<const std::uint8_t> bytes, std::size_t* offset) {
  const std::span<const std::uint8_t> payload =
      ValidateFlatParams(bytes, offset);
  if (reinterpret_cast<std::uintptr_t>(payload.data()) % alignof(float) !=
      0) {
    return std::nullopt;  // caller copies; no offset advance
  }
  const std::size_t count = payload.size() / sizeof(float);
  *offset += FlatParamsWireSize(count);
  return std::span<const float>(
      reinterpret_cast<const float*>(payload.data()), count);
}

void SaveFlatParams(const std::string& path, std::span<const float> params) {
  std::vector<std::uint8_t> buffer;
  AppendFlatParams(buffer, params);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  AF_CHECK(out.good()) << "cannot open " << path << " for writing";
  out.write(reinterpret_cast<const char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
  AF_CHECK(out.good()) << "write failed for " << path;
}

std::vector<float> LoadFlatParams(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AF_CHECK(in.good()) << "cannot open " << path;
  std::vector<std::uint8_t> buffer(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  AF_CHECK(!in.bad()) << "read failed for " << path;
  std::size_t offset = 0;
  try {
    std::vector<float> params = ParseFlatParams(buffer, &offset);
    // A checkpoint file is exactly one block; trailing bytes mean the file
    // was corrupted or concatenated and must not be silently accepted.
    AF_CHECK_EQ(offset, buffer.size())
        << "trailing garbage after AFPM block at byte offset " << offset
        << ": " << buffer.size() - offset << " extra bytes";
    return params;
  } catch (const util::CheckError& e) {
    throw util::CheckError(std::string(e.what()) + " [file: " + path + "]");
  }
}

}  // namespace nn
