#include "mcsim/serve/daemon.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "mcsim/serve/protocol.hpp"
#include "mcsim/util/json.hpp"

namespace mcsim::serve {
namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error("serve: " + what + ": " +
                           std::strerror(errno));
}

/// Send the whole buffer, retrying on EINTR and short writes.  Returns
/// false when the peer is gone (EPIPE & friends) — the caller just drops the
/// connection.  MSG_NOSIGNAL: a client that hangs up before its reply must
/// cost an EPIPE, not a process-killing SIGPIPE.
bool writeAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool writeAll(int fd, const std::string& s) {
  return writeAll(fd, s.data(), s.size());
}

}  // namespace

ServeDaemon::ServeDaemon(DaemonOptions options)
    : options_(std::move(options)), service_(options_.service) {
  const std::string& path = options_.socketPath;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("serve: socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd_ < 0) throwErrno("socket");
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int savedErrno = errno;
    ::close(listenFd_);
    listenFd_ = -1;
    errno = savedErrno;
    throwErrno("bind " + path);
  }
  if (::listen(listenFd_, 64) != 0) {
    const int savedErrno = errno;
    ::close(listenFd_);
    listenFd_ = -1;
    errno = savedErrno;
    throwErrno("listen " + path);
  }
  if (::pipe(wakePipe_) != 0) {
    const int savedErrno = errno;
    ::close(listenFd_);
    listenFd_ = -1;
    errno = savedErrno;
    throwErrno("pipe");
  }
}

ServeDaemon::~ServeDaemon() {
  stop();
  wait();
  if (listenFd_ >= 0) ::close(listenFd_);
  if (wakePipe_[0] >= 0) ::close(wakePipe_[0]);
  if (wakePipe_[1] >= 0) ::close(wakePipe_[1]);
  ::unlink(options_.socketPath.c_str());
}

void ServeDaemon::start() {
  if (started_) return;
  started_ = true;
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

void ServeDaemon::requestStop() {
  // Only the two calls below — both async-signal-safe — so this can be a
  // SIGTERM handler body.
  stopRequested_.store(true);
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(wakePipe_[1], &byte, 1);
}

void ServeDaemon::stop() {
  requestStop();
  const std::lock_guard<std::mutex> lock(connectionsMutex_);
  for (const auto& conn : connections_)
    if (!conn->done.load()) ::shutdown(conn->fd, SHUT_RDWR);
}

void ServeDaemon::wait() {
  if (acceptThread_.joinable()) acceptThread_.join();
  // The accept loop has exited, so no new connections can appear.  Shut
  // down any connection still blocked in read() so its thread can observe
  // the stop flag and exit.
  stop();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    const std::lock_guard<std::mutex> lock(connectionsMutex_);
    connections.swap(connections_);
  }
  for (const auto& conn : connections)
    if (conn->thread.joinable()) conn->thread.join();
}

void ServeDaemon::reapFinishedConnections() {
  const std::lock_guard<std::mutex> lock(connectionsMutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServeDaemon::acceptLoop() {
  while (!stopRequested_.load()) {
    pollfd fds[2];
    fds[0] = {listenFd_, POLLIN, 0};
    fds[1] = {wakePipe_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopRequested_.load()) break;
    if (!(fds[0].revents & POLLIN)) continue;

    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    reapFinishedConnections();
    auto conn = std::make_unique<Connection>();
    Connection* raw = conn.get();
    raw->fd = fd;
    {
      const std::lock_guard<std::mutex> lock(connectionsMutex_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] {
      serveConnection(raw->fd);
      // close() under the same mutex stop() holds while calling shutdown(),
      // so a stopping daemon never shuts down a recycled descriptor.
      const std::lock_guard<std::mutex> lock(connectionsMutex_);
      ::close(raw->fd);
      raw->done.store(true);
    });
  }
}

void ServeDaemon::handleHttp(int fd, const std::string& firstLine) {
  // Minimal HTTP/1.0 so `curl --unix-socket mcsim.sock http://x/metrics`
  // works.  The request line was already consumed; drain the headers only
  // far enough to be polite — we answer and close regardless.
  std::string body;
  std::string status = "200 OK";
  std::string contentType = "text/plain; version=0.0.4; charset=utf-8";
  if (firstLine.rfind("GET /metrics", 0) == 0) {
    body = service_.metricsText();
  } else {
    status = "404 Not Found";
    contentType = "text/plain";
    body = "only /metrics lives here\n";
  }
  std::string response = "HTTP/1.0 " + status +
                         "\r\nContent-Type: " + contentType +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  writeAll(fd, response);
}

void ServeDaemon::serveConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool sniffed = false;
  while (!stopRequested_.load()) {
    // Process complete lines already buffered before reading more.
    std::size_t eol;
    while ((eol = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!sniffed) {
        sniffed = true;
        if (line.rfind("GET ", 0) == 0 || line.rfind("HEAD ", 0) == 0) {
          handleHttp(fd, line);
          return;  // HTTP is one-shot: answer and close
        }
      }
      if (line.empty()) continue;

      json::JsonValue request;
      bool parsed = true;
      try {
        request = json::parseJson(line);
      } catch (const std::exception& e) {
        parsed = false;
        json::JsonObject o;
        o["ok"] = false;
        o["error"] = std::string("parse error: ") + e.what();
        if (!writeAll(fd, json::dumpJson(json::JsonValue(std::move(o))) + "\n"))
          return;
      }
      if (!parsed) continue;

      const json::JsonValue response = service_.handle(request);
      if (!writeAll(fd, json::dumpJson(response) + "\n")) return;
      // Only an accepted shutdown stops the daemon, not a refused one.
      if (response.has("shutting_down")) {
        requestStop();
        return;
      }
    }

    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (n == 0) return;  // peer closed
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace mcsim::serve
