#pragma once
// TCP transport primitives under the process fleet's frame protocol
// (service/ipc.hpp) — the piece that turns PR 7's single-host fleet into
// multi-host fan-out.  The frame layer is fd-agnostic by design, so the
// whole "distributed" step is: produce a connected SOCK_STREAM fd over the
// network instead of a socketpair, with the failure modes a real network
// adds handled here once:
//
//   * connect is non-blocking with a deadline — a blackholed host costs
//     the fleet's fixed 5 s dial bound, never an indefinite supervisor
//     stall;
//   * accept is deadline-bounded the same way (the listener fd stays
//     non-blocking; a dialer that never completes its handshake cannot
//     wedge the accept loop);
//   * accepted/connected fds are tuned once (TCP_NODELAY — frames are
//     small and latency-bound; FD_CLOEXEC — fleet children must not
//     inherit each other's channels) and handed back in *blocking* mode,
//     exactly what the socketpair path produces, so every byte of
//     supervision code upstream is transport-blind;
//   * SIGPIPE never fires: writes go through ipc::write_frame's
//     send(MSG_NOSIGNAL) — the Linux equivalent of SO_NOSIGPIPE — and the
//     worker additionally ignores the signal.
//
// Endpoints are "host:port" strings (IPv4/IPv6/hostname via getaddrinfo;
// a bracketed or bare IPv6 address needs the last ':' as the separator,
// which parse_endpoint handles).  Port 0 binds ephemerally and
// TcpListener::endpoint() reports the kernel's choice — how tests and
// `unigen_workerd --listen` servers avoid port collisions.

#include <cstdint>
#include <string>

namespace unigen::net {

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// "host:port" → Endpoint (last ':' separates, so bare IPv6 works; a
/// surrounding [] pair is stripped).  False on missing/empty host, missing
/// separator, or a port outside [0, 65535].
bool parse_endpoint(const std::string& text, Endpoint& out);
std::string to_string(const Endpoint& e);

/// Deadline-bounded TCP dial: non-blocking connect, poll for writability
/// until `timeout_s`, then SO_ERROR decides.  Returns a connected fd in
/// blocking mode (tuned, see tune_stream_socket) or -1 on refusal,
/// resolution failure, or deadline expiry.  timeout_s <= 0 degrades to a
/// single non-blocking attempt (localhost connects usually complete
/// immediately; anything slower is treated as unreachable).
int tcp_connect(const Endpoint& endpoint, double timeout_s);

/// Per-fd discipline shared by both ends of every fleet connection:
/// TCP_NODELAY (a Task frame must not sit behind Nagle), FD_CLOEXEC (a
/// later fork/exec of another worker must not leak this channel).  No-op
/// failures are ignored — both are performance/hygiene, not correctness.
void tune_stream_socket(int fd);

class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Bind + listen on host:port (port 0 = ephemeral; endpoint() then
  /// reports the bound port).  False on resolution/bind failure.
  bool listen(const std::string& host, std::uint16_t port);

  /// Deadline-bounded accept: the accepted fd (blocking, tuned) or -1 on
  /// timeout / listener closed.  timeout_s <= 0 polls once.
  int accept(double timeout_s);

  bool listening() const { return fd_ >= 0; }
  const Endpoint& endpoint() const { return endpoint_; }
  void close();

 private:
  int fd_ = -1;
  Endpoint endpoint_;
};

}  // namespace unigen::net
