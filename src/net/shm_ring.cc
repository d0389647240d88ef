#include "net/shm_ring.h"

#include <fcntl.h>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/check.h"
#include "util/fd.h"
#include "util/logging.h"

namespace net {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kControlLane = 64;  // header padded to a cache line

// Sane per-direction capacity bounds: a ring must hold at least one frame
// header comfortably, and a hostile header must not drive the mapping math
// into overflow.
constexpr std::size_t kMinRingBytes = 1u << 12;
constexpr std::size_t kMaxRingBytes = std::size_t{1} << 30;

bool IsPowerOfTwo(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

// Futex doorbells. Non-PRIVATE: the two sides of a ring may be different
// processes.
int FutexWait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
              int timeout_ms) {
  timespec ts;
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000L;
  return static_cast<int>(::syscall(SYS_futex, word, FUTEX_WAIT, expected,
                                    timeout_ms >= 0 ? &ts : nullptr, nullptr,
                                    0));
}

void FutexWake(std::atomic<std::uint32_t>* word) {
  ::syscall(SYS_futex, word, FUTEX_WAKE, INT32_MAX, nullptr, nullptr, 0);
}

std::size_t HeaderLane() {
  static_assert(sizeof(ShmHeader) <= kControlLane);
  return kControlLane;
}

}  // namespace

void ValidateShmHeader(std::span<const std::uint8_t> bytes) {
  AF_CHECK_GE(bytes.size(), sizeof(ShmHeader))
      << "truncated AFSH header: " << bytes.size() << " bytes";
  ShmHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  AF_CHECK_EQ(header.magic, kShmMagic) << "bad AFSH magic";
  AF_CHECK_EQ(header.version, kShmVersion)
      << "unsupported AFSH version " << header.version;
  AF_CHECK_GE(header.ring_bytes, kMinRingBytes)
      << "AFSH ring capacity " << header.ring_bytes << " below minimum";
  AF_CHECK_LE(header.ring_bytes, kMaxRingBytes)
      << "AFSH ring capacity " << header.ring_bytes << " exceeds limit";
  AF_CHECK(IsPowerOfTwo(static_cast<std::size_t>(header.ring_bytes)))
      << "AFSH ring capacity " << header.ring_bytes
      << " is not a power of two";
}

std::size_t ShmSegmentBytes(std::size_t ring_bytes) {
  return HeaderLane() + 2 * sizeof(ShmRingControl) + 2 * ring_bytes;
}

// --- ShmRing -----------------------------------------------------------

ShmRing::ShmRing(ShmRingControl* control, std::uint8_t* data,
                 std::size_t capacity)
    : control_(control), data_(data), capacity_(capacity) {}

std::size_t ShmRing::AvailableToRead() const {
  return static_cast<std::size_t>(
      control_->head.load(std::memory_order_acquire) -
      control_->tail.load(std::memory_order_acquire));
}

std::size_t ShmRing::WriteSome(std::span<const std::uint8_t> bytes) {
  const std::uint64_t head = control_->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = control_->tail.load(std::memory_order_acquire);
  const std::size_t free = capacity_ - static_cast<std::size_t>(head - tail);
  const std::size_t n = std::min(bytes.size(), free);
  if (n == 0) {
    return 0;
  }
  const std::size_t pos = static_cast<std::size_t>(head) & (capacity_ - 1);
  const std::size_t first = std::min(n, capacity_ - pos);
  std::memcpy(data_ + pos, bytes.data(), first);
  if (first < n) {
    std::memcpy(data_, bytes.data() + first, n - first);
  }
  control_->head.store(head + n, std::memory_order_release);
  control_->data_seq.fetch_add(1, std::memory_order_release);
  FutexWake(&control_->data_seq);
  return n;
}

bool ShmRing::WriteAll(std::span<const std::uint8_t> bytes, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t written = 0;
  while (written < bytes.size()) {
    written += WriteSome(bytes.subspan(written));
    if (written == bytes.size()) {
      break;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) {
      return false;
    }
    const std::uint32_t seq =
        control_->space_seq.load(std::memory_order_acquire);
    // Re-check after sampling the doorbell: a consume between the check and
    // the wait changes the word and the futex wait returns immediately.
    const std::uint64_t head = control_->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = control_->tail.load(std::memory_order_acquire);
    if (capacity_ - static_cast<std::size_t>(head - tail) > 0) {
      continue;
    }
    FutexWait(&control_->space_seq, seq,
              static_cast<int>(std::min<long long>(left, 50)));
  }
  return true;
}

std::size_t ShmRing::ReadSome(std::vector<std::uint8_t>& out) {
  const std::uint64_t tail = control_->tail.load(std::memory_order_relaxed);
  const std::uint64_t head = control_->head.load(std::memory_order_acquire);
  const std::size_t n = static_cast<std::size_t>(head - tail);
  if (n == 0) {
    return 0;
  }
  const std::size_t pos = static_cast<std::size_t>(tail) & (capacity_ - 1);
  const std::size_t first = std::min(n, capacity_ - pos);
  const std::size_t old_size = out.size();
  out.resize(old_size + n);
  std::memcpy(out.data() + old_size, data_ + pos, first);
  if (first < n) {
    std::memcpy(out.data() + old_size + first, data_, n - first);
  }
  control_->tail.store(tail + n, std::memory_order_release);
  control_->space_seq.fetch_add(1, std::memory_order_release);
  FutexWake(&control_->space_seq);
  return n;
}

bool ShmRing::WaitReadable(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    if (AvailableToRead() > 0) {
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) {
      return AvailableToRead() > 0;
    }
    const std::uint32_t seq =
        control_->data_seq.load(std::memory_order_acquire);
    if (AvailableToRead() > 0) {
      return true;
    }
    FutexWait(&control_->data_seq, seq,
              static_cast<int>(std::min<long long>(left, 50)));
  }
}

// --- ShmSegment --------------------------------------------------------

ShmSegment::ShmSegment(std::string name, bool owner, void* base,
                       std::size_t map_bytes, std::size_t ring_bytes)
    : name_(std::move(name)),
      owner_(owner),
      base_(base),
      map_bytes_(map_bytes),
      ring_bytes_(ring_bytes) {
  auto* bytes = static_cast<std::uint8_t*>(base_);
  auto* up_control =
      reinterpret_cast<ShmRingControl*>(bytes + HeaderLane());
  auto* down_control = up_control + 1;
  std::uint8_t* up_data = bytes + HeaderLane() + 2 * sizeof(ShmRingControl);
  std::uint8_t* down_data = up_data + ring_bytes_;
  uplink_ = ShmRing(up_control, up_data, ring_bytes_);
  downlink_ = ShmRing(down_control, down_data, ring_bytes_);
}

std::unique_ptr<ShmSegment> ShmSegment::Create(const std::string& name,
                                               std::size_t ring_bytes) {
  AF_CHECK(IsPowerOfTwo(ring_bytes) && ring_bytes >= kMinRingBytes &&
           ring_bytes <= kMaxRingBytes)
      << "bad shm ring capacity " << ring_bytes;
  const std::size_t map_bytes = ShmSegmentBytes(ring_bytes);
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  AF_CHECK_GE(fd, 0) << "shm_open(" << name
                     << ") failed: " << util::ErrnoMessage(errno);
  if (::ftruncate(fd, static_cast<off_t>(map_bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    ::shm_unlink(name.c_str());
    AF_CHECK(false) << "ftruncate(" << name
                    << ") failed: " << util::ErrnoMessage(err);
  }
  void* base = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                      fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    const int err = errno;
    ::shm_unlink(name.c_str());
    AF_CHECK(false) << "mmap(" << name
                    << ") failed: " << util::ErrnoMessage(err);
  }
  // The segment arrives zero-filled: cursors and doorbells start at 0; only
  // the header needs writing.
  ShmHeader header;
  header.magic = kShmMagic;
  header.version = kShmVersion;
  header.ring_bytes = ring_bytes;
  std::memcpy(base, &header, sizeof(header));
  return std::unique_ptr<ShmSegment>(
      new ShmSegment(name, /*owner=*/true, base, map_bytes, ring_bytes));
}

std::unique_ptr<ShmSegment> ShmSegment::Open(
    const std::string& name, std::size_t expected_ring_bytes) {
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  AF_CHECK_GE(fd, 0) << "shm_open(" << name
                     << ") failed: " << util::ErrnoMessage(errno);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    AF_CHECK(false) << "fstat(" << name
                    << ") failed: " << util::ErrnoMessage(err);
  }
  const std::size_t map_bytes = ShmSegmentBytes(expected_ring_bytes);
  if (static_cast<std::size_t>(st.st_size) < map_bytes) {
    ::close(fd);
    AF_CHECK(false) << "shm segment " << name << " is " << st.st_size
                    << " bytes; expected at least " << map_bytes;
  }
  void* base = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                      fd, 0);
  const int map_err = errno;
  ::close(fd);
  AF_CHECK(base != MAP_FAILED)
      << "mmap(" << name << ") failed: " << util::ErrnoMessage(map_err);
  ShmHeader header;
  std::memcpy(&header, base, sizeof(header));
  try {
    ValidateShmHeader(std::span<const std::uint8_t>(
        static_cast<const std::uint8_t*>(base), sizeof(ShmHeader)));
    AF_CHECK_EQ(header.ring_bytes, expected_ring_bytes)
        << "shm segment " << name << " ring capacity disagrees with offer";
  } catch (...) {
    ::munmap(base, map_bytes);
    throw;
  }
  return std::unique_ptr<ShmSegment>(new ShmSegment(
      name, /*owner=*/false, base, map_bytes, expected_ring_bytes));
}

ShmSegment::~ShmSegment() {
  if (base_ != nullptr) {
    ::munmap(base_, map_bytes_);
  }
  if (owner_) {
    ::shm_unlink(name_.c_str());
  }
}

std::string MakeShmName(std::uint16_t port, int client_id) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return "/afnt-" + std::to_string(::getpid()) + "-" + std::to_string(port) +
         "-" + std::to_string(client_id) + "-" + std::to_string(n);
}

}  // namespace net
