// fd-readiness reactor: the socket half of the server, kept apart so
// sessions (net/session.h) never touch an fd.
//
// One epoll set holds every registered fd plus the wakeup pipe, so a single
// Wait() sleeps on everything and dispatch cost is O(ready), not
// O(connections).
//
// All registration and Wait() calls belong to one owner thread; Wakeup() is
// the one cross-thread entry point (it interrupts a blocked Wait, which is
// how the virtual-client pool's workers nudge the pump loop when they
// finish a job). Events are level-triggered: a connection with unread bytes
// or unflushed write interest reports ready again on the next Wait.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace net {

struct ReactorEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;   // EPOLLERR
  bool hangup = false;  // EPOLLHUP
};

class Reactor {
 public:
  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Registers `fd` with level-triggered read interest. The fd must stay
  // valid until Remove.
  void Add(int fd);
  // Toggles write interest (read interest is permanent until Remove).
  // No-op when the interest already matches.
  void SetWantWrite(int fd, bool want_write);
  void Remove(int fd);

  // Blocks up to `timeout_ms` (0 → immediate, < 0 → indefinitely) and
  // appends one entry per ready fd to `out` (not cleared), at most one per
  // fd and at most one batch (256) per call; fds left over stay ready and
  // surface on the next Wait. Returns the number of events appended. A
  // pending Wakeup() makes Wait return promptly with whatever is ready.
  std::size_t Wait(int timeout_ms, std::vector<ReactorEvent>* out);

  // Interrupts a concurrent Wait from any thread. Sticky: a wakeup posted
  // while no Wait is in progress makes the next Wait return immediately.
  void Wakeup();

  std::size_t watched_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
