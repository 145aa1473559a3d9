#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "spans.h"

namespace perfbench {
namespace {

int ConnectUnix(const std::string& path, bool nonblocking) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  if (nonblocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

struct Connection {
  int fd = -1;
  std::string out;
  std::size_t out_pos = 0;
  std::string in;
  std::int64_t in_flight = 0;
  bool dead = false;
};

/// One `GET /metrics` over its own connection: start() connects and
/// sends the request, read() takes what has arrived until the daemon
/// closes the connection, body() is the document of a 200 response.
struct Scrape {
  int fd = -1;
  std::int64_t start_ns = 0;
  std::string response;

  /// False (and no open fd) when the connection or the send failed.
  bool start(const std::string& socket_path, bool nonblocking) {
    static const std::string kRequest = "GET /metrics HTTP/1.0\r\n\r\n";
    start_ns = SpanRecorder::NowNs();
    response.clear();
    fd = ConnectUnix(socket_path, nonblocking);
    if (fd >= 0 && ::send(fd, kRequest.data(), kRequest.size(), MSG_NOSIGNAL) ==
                       static_cast<ssize_t>(kRequest.size())) {
      return true;
    }
    close();
    return false;
  }

  /// Reads what is available; true once the response is complete (the
  /// daemon closed the connection, or it failed), with the fd closed.
  bool read() {
    char buffer[65536];
    while (true) {
      const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
      if (got > 0) {
        response.append(buffer, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      close();
      return true;
    }
  }

  bool ok() const { return response.rfind("HTTP/1.0 200", 0) == 0; }

  std::string body() const {
    const std::size_t at = response.find("\r\n\r\n");
    return at == std::string::npos ? std::string() : response.substr(at + 4);
  }

  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

}  // namespace

std::int64_t JsonInt(const std::string& text, const std::string& key,
                     std::int64_t fallback) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return fallback;
  const char* p = text.c_str() + at + needle.size();
  while (*p == ' ') ++p;
  char* end = nullptr;
  const long long value = std::strtoll(p, &end, 10);
  return end == p ? fallback : value;
}

std::vector<double> StreamResult::latency_ms() const {
  std::vector<double> out;
  out.reserve(replies.size());
  for (std::size_t k = 0; k < replies.size(); ++k) {
    if (reply_ns[k] == 0) continue;
    out.push_back(SecondsBetween(sent_ns[k], reply_ns[k]) * 1e3);
  }
  return out;
}

std::string ScrapeMetrics(const std::string& socket_path, double* ms,
                          std::string* error) {
  Scrape scrape;
  if (!scrape.start(socket_path, false)) {
    *error = "scrape connect failed: " + std::string(std::strerror(errno));
    return "";
  }
  while (!scrape.read()) {
  }
  *ms = SecondsBetween(scrape.start_ns, SpanRecorder::NowNs()) * 1e3;
  if (!scrape.ok()) {
    *error = "scrape got no 200 response";
    return "";
  }
  return scrape.body();
}

StreamResult RunStream(const StreamConfig& config) {
  const std::vector<std::string>& lines = *config.lines;
  const std::int64_t n = static_cast<std::int64_t>(lines.size());
  StreamResult result;
  result.replies.assign(lines.size(), Reply{});
  result.sent_ns.assign(lines.size(), 0);
  result.reply_ns.assign(lines.size(), 0);

  std::vector<Connection> conns(static_cast<std::size_t>(config.connections));
  for (Connection& conn : conns) {
    conn.fd = ConnectUnix(config.socket_path, true);
    if (conn.fd < 0) {
      result.first_errors.push_back("connect failed: " +
                                    std::string(std::strerror(errno)));
      result.timed_out = true;
      return result;
    }
  }

  const std::int64_t cpu_start = ThreadCpuNs();
  const std::int64_t start_ns = SpanRecorder::NowNs();
  const std::int64_t scrape_period_ns =
      static_cast<std::int64_t>(config.scrape_every_s * 1e9);
  std::int64_t next_scrape_ns = start_ns + scrape_period_ns;
  const std::int64_t deadline_ns =
      start_ns + static_cast<std::int64_t>(config.timeout_s * 1e9);
  Scrape scrape;
  std::int64_t next_job = 0;
  std::int64_t answered = 0;
  std::int64_t last_reply_ns = start_ns;
  std::vector<pollfd> fds;

  auto queue_job = [&](std::int64_t k, std::size_t c, std::int64_t now) {
    Connection& conn = conns[c];
    conn.out += lines[static_cast<std::size_t>(k)];
    ++conn.in_flight;
    result.sent_ns[static_cast<std::size_t>(k)] = now;
  };

  auto handle_line = [&](Connection& conn, const char* begin,
                         std::size_t length, std::int64_t now) {
    const std::string line(begin, length);
    if (line.rfind("{\"error\"", 0) == 0) {
      ++result.error_replies;
      if (result.first_errors.size() < 5) result.first_errors.push_back(line);
      return;
    }
    if (!config.tagged && line.rfind("{\"job_id\"", 0) == 0) {
      ++result.untagged_replies;
      --conn.in_flight;
      ++answered;
      last_reply_ns = now;
      return;
    }
    const std::size_t tag = line.find("\"id\": \"t");
    if (tag == std::string::npos) {
      ++result.unknown_replies;
      return;
    }
    const std::int64_t k = std::strtoll(line.c_str() + tag + 8, nullptr, 10);
    if (k < 0 || k >= n) {
      ++result.unknown_replies;
      return;
    }
    Reply& reply = result.replies[static_cast<std::size_t>(k)];
    if (++reply.count > 1) return;  // duplicate: counted, not re-timed
    reply.job_id = JsonInt(line, "job_id", -1);
    reply.release = JsonInt(line, "release", -1);
    reply.finish = JsonInt(line, "finish", -1);
    reply.flow = JsonInt(line, "flow", -1);
    result.reply_ns[static_cast<std::size_t>(k)] = now;
    --conn.in_flight;
    ++answered;
    last_reply_ns = now;
  };

  while (answered < n) {
    std::int64_t now = SpanRecorder::NowNs();
    if (now > deadline_ns) {
      result.timed_out = true;
      break;
    }
    // Queue what the windows allow.
    for (std::size_t c = 0; c < conns.size(); ++c) {
      while (next_job < n && conns[c].in_flight < config.window && !conns[c].dead) {
        queue_job(next_job++, c, now);
      }
    }
    // Push queued bytes.
    for (Connection& conn : conns) {
      while (conn.out_pos < conn.out.size() && !conn.dead) {
        const ssize_t wrote =
            ::send(conn.fd, conn.out.data() + conn.out_pos,
                   conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
        if (wrote > 0) {
          conn.out_pos += static_cast<std::size_t>(wrote);
        } else if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          conn.dead = true;
        }
      }
      if (conn.out_pos == conn.out.size()) {
        conn.out.clear();
        conn.out_pos = 0;
      }
    }
    // Start a periodic scrape.
    if (scrape_period_ns > 0 && scrape.fd < 0 && now >= next_scrape_ns) {
      if (!scrape.start(config.socket_path, true)) ++result.scrape_failures;
      next_scrape_ns = now + scrape_period_ns;
    }

    fds.clear();
    for (const Connection& conn : conns) {
      short events = POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back(pollfd{conn.dead ? -1 : conn.fd, events, 0});
    }
    if (scrape.fd >= 0) fds.push_back(pollfd{scrape.fd, POLLIN, 0});

    std::int64_t wake_ns = deadline_ns;
    if (scrape_period_ns > 0 && scrape.fd < 0) {
      wake_ns = std::min(wake_ns, next_scrape_ns);
    }
    const std::int64_t wait_ns = std::max<std::int64_t>(0, wake_ns - now);
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    now = SpanRecorder::NowNs();

    for (std::size_t c = 0; c < conns.size(); ++c) {
      Connection& conn = conns[c];
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buffer[65536];
      while (true) {
        const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
        if (got > 0) {
          conn.in.append(buffer, static_cast<std::size_t>(got));
          if (got < static_cast<ssize_t>(sizeof(buffer))) break;
          continue;
        }
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          conn.dead = true;
        }
        break;
      }
      std::size_t start = 0;
      while (true) {
        const std::size_t newline = conn.in.find('\n', start);
        if (newline == std::string::npos) break;
        handle_line(conn, conn.in.data() + start, newline - start, now);
        start = newline + 1;
      }
      conn.in.erase(0, start);
    }
    if (scrape.fd >= 0 && (fds.back().revents & (POLLIN | POLLHUP | POLLERR)) &&
        scrape.read()) {
      if (scrape.ok()) {
        result.scrape_ms.push_back(SecondsBetween(scrape.start_ns, now) * 1e3);
      } else {
        ++result.scrape_failures;
      }
    }
    bool all_dead = true;
    for (const Connection& conn : conns) all_dead = all_dead && conn.dead;
    if (all_dead) {
      result.first_errors.push_back("every connection closed early");
      break;
    }
  }
  scrape.close();
  for (Connection& conn : conns) ::close(conn.fd);
  result.wall_s = SecondsBetween(start_ns, last_reply_ns);
  result.cpu_s = static_cast<double>(ThreadCpuNs() - cpu_start) / 1e9;
  return result;
}

}  // namespace perfbench
