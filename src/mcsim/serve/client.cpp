#include "mcsim/serve/client.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace mcsim::serve {
namespace {

int connectUnix(const std::string& socketPath) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socketPath.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("serve: socket path too long: " + socketPath);
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error(std::string("serve: socket: ") +
                             std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int savedErrno = errno;
    ::close(fd);
    throw std::runtime_error("serve: connect " + socketPath + ": " +
                             std::strerror(savedErrno));
  }
  return fd;
}

/// Send all of `s`; a daemon gone mid-write throws (EPIPE) rather than
/// raising SIGPIPE, thanks to MSG_NOSIGNAL.
void writeAll(int fd, const std::string& s) {
  const char* data = s.data();
  std::size_t size = s.size();
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve: write: ") +
                               std::strerror(errno));
    }
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
}

/// Read until `buffer` holds at least one full line; pops and returns it.
std::string readLine(int fd, std::string& buffer) {
  char chunk[4096];
  for (;;) {
    const std::size_t eol = buffer.find('\n');
    if (eol != std::string::npos) {
      std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      return line;
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve: read: ") +
                               std::strerror(errno));
    }
    if (n == 0)
      throw std::runtime_error("serve: daemon closed the connection");
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace

ServeClient::ServeClient(const std::string& socketPath)
    : fd_(connectUnix(socketPath)) {}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

json::JsonValue ServeClient::call(const json::JsonValue& request) {
  writeAll(fd_, json::dumpJson(request) + "\n");
  return json::parseJson(readLine(fd_, buffer_));
}

std::string fetchMetrics(const std::string& socketPath) {
  const int fd = connectUnix(socketPath);
  std::string body;
  try {
    writeAll(fd, "GET /metrics HTTP/1.0\r\n\r\n");
    std::string response;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("serve: read: ") +
                                 std::strerror(errno));
      }
      if (n == 0) break;  // daemon closes after the body
      response.append(chunk, static_cast<std::size_t>(n));
    }
    const std::size_t split = response.find("\r\n\r\n");
    if (split == std::string::npos || response.rfind("HTTP/1.0 200", 0) != 0)
      throw std::runtime_error("serve: bad /metrics response");
    body = response.substr(split + 4);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return body;
}

}  // namespace mcsim::serve
