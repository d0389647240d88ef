#include "net/reactor.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/fd.h"

namespace net {
namespace {

// One Wait() drains at most this many kernel events; anything beyond stays
// level-triggered-ready for the next tick.
constexpr int kMaxBatch = 256;

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  AF_CHECK_GE(flags, 0) << "fcntl failed: " << util::ErrnoMessage(errno);
  AF_CHECK_GE(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0)
      << "fcntl failed: " << util::ErrnoMessage(errno);
}

}  // namespace

struct Reactor::Impl {
  // Registered fd → whether write interest is on.
  std::unordered_map<int, bool> want_write;

  util::UniqueFd epfd;
  // Wakeup pipe: read end lives in the epoll set, any thread writes a byte
  // to interrupt. Non-blocking on both ends so a flood of wakeups coalesces
  // instead of blocking the caller.
  util::UniqueFd wake_read;
  util::UniqueFd wake_write;

  obs::Counter& wakeups =
      obs::DefaultRegistry().GetCounter("reactor.wakeups");
  obs::Counter& events =
      obs::DefaultRegistry().GetCounter("reactor.events");

  void EpollCtl(int op, int fd, std::uint32_t ev_mask) const {
    epoll_event ev{};
    ev.events = ev_mask;
    ev.data.fd = fd;
    AF_CHECK_EQ(::epoll_ctl(epfd.get(), op, fd, &ev), 0)
        << "epoll_ctl failed: " << util::ErrnoMessage(errno);
  }

  void DrainWakePipe() {
    std::uint8_t buf[64];
    while (::read(wake_read.get(), buf, sizeof(buf)) > 0) {
    }
  }
};

Reactor::Reactor() : impl_(std::make_unique<Impl>()) {
  impl_->epfd.reset(::epoll_create1(0));
  AF_CHECK(impl_->epfd.valid())
      << "epoll_create1 failed: " << util::ErrnoMessage(errno);

  int pipe_fds[2];
  AF_CHECK_EQ(::pipe(pipe_fds), 0)
      << "pipe failed: " << util::ErrnoMessage(errno);
  impl_->wake_read.reset(pipe_fds[0]);
  impl_->wake_write.reset(pipe_fds[1]);
  SetNonBlocking(impl_->wake_read.get());
  SetNonBlocking(impl_->wake_write.get());
  impl_->EpollCtl(EPOLL_CTL_ADD, impl_->wake_read.get(), EPOLLIN);
}

Reactor::~Reactor() = default;

void Reactor::Add(int fd) {
  AF_CHECK_GE(fd, 0);
  AF_CHECK_EQ(impl_->want_write.count(fd), 0u)
      << "fd " << fd << " already registered";
  impl_->want_write.emplace(fd, false);
  impl_->EpollCtl(EPOLL_CTL_ADD, fd, EPOLLIN);
}

void Reactor::SetWantWrite(int fd, bool want_write) {
  auto it = impl_->want_write.find(fd);
  AF_CHECK(it != impl_->want_write.end()) << "fd " << fd << " not registered";
  if (it->second == want_write) {
    return;
  }
  it->second = want_write;
  impl_->EpollCtl(EPOLL_CTL_MOD, fd,
                  want_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
}

void Reactor::Remove(int fd) {
  auto it = impl_->want_write.find(fd);
  AF_CHECK(it != impl_->want_write.end()) << "fd " << fd << " not registered";
  impl_->EpollCtl(EPOLL_CTL_DEL, fd, 0);
  impl_->want_write.erase(it);
}

std::size_t Reactor::Wait(int timeout_ms, std::vector<ReactorEvent>* out) {
  AF_CHECK(out != nullptr);
  epoll_event ready[kMaxBatch];
  const int n = ::epoll_wait(impl_->epfd.get(), ready, kMaxBatch, timeout_ms);
  if (n < 0) {
    AF_CHECK(errno == EINTR)
        << "epoll_wait failed: " << util::ErrnoMessage(errno);
    return 0;
  }
  std::size_t appended = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = ready[i].data.fd;
    if (fd == impl_->wake_read.get()) {
      impl_->DrainWakePipe();
      continue;
    }
    ReactorEvent event;
    event.fd = fd;
    event.readable = (ready[i].events & EPOLLIN) != 0;
    event.writable = (ready[i].events & EPOLLOUT) != 0;
    event.error = (ready[i].events & EPOLLERR) != 0;
    event.hangup = (ready[i].events & EPOLLHUP) != 0;
    out->push_back(event);
    ++appended;
  }
  if (appended > 0) {
    impl_->events.Increment(static_cast<std::uint64_t>(appended));
  }
  return appended;
}

void Reactor::Wakeup() {
  impl_->wakeups.Increment();
  const std::uint8_t byte = 1;
  // EAGAIN means a wakeup is already pending — coalescing is the point.
  [[maybe_unused]] const ssize_t n =
      ::write(impl_->wake_write.get(), &byte, 1);
}

std::size_t Reactor::watched_count() const { return impl_->want_write.size(); }

}  // namespace net
