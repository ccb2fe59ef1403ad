#include "src/net/socket_transport.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "src/common/check.h"

namespace past {
namespace {

// The largest UDP datagram we are willing to receive: a frame header plus
// the largest payload the options allow over UDP, rounded up generously to
// a full 64 KB so a misconfigured sender is diagnosed by the decoder (with
// a counted drop) instead of silently truncated by the kernel.
constexpr size_t kUdpRecvBuf = 65536;
constexpr int kEphemeralPortAttempts = 32;

}  // namespace

SocketTransport::SocketTransport(SocketTransportOptions options)
    : options_(std::move(options)) {
  obs_.udp_tx = metrics_.GetCounter("net.sock.udp_tx");
  obs_.udp_rx = metrics_.GetCounter("net.sock.udp_rx");
  obs_.tcp_tx = metrics_.GetCounter("net.sock.tcp_tx");
  obs_.tcp_rx = metrics_.GetCounter("net.sock.tcp_rx");
  obs_.bytes_tx = metrics_.GetCounter("net.sock.bytes_tx");
  obs_.bytes_rx = metrics_.GetCounter("net.sock.bytes_rx");
  obs_.conns_dialed = metrics_.GetCounter("net.sock.conns_dialed");
  obs_.conns_accepted = metrics_.GetCounter("net.sock.conns_accepted");
  obs_.conns_dropped = metrics_.GetCounter("net.sock.conns_dropped");
  obs_.dropped_oversize = metrics_.GetCounter("net.sock.dropped_oversize");
  obs_.dropped_backpressure = metrics_.GetCounter("net.sock.dropped_backpressure");
  obs_.dropped_decode = metrics_.GetCounter("net.sock.dropped_decode");
  obs_.dropped_misaddressed = metrics_.GetCounter("net.sock.dropped_misaddressed");
  obs_.dropped_down = metrics_.GetCounter("net.sock.dropped_down");
}

SocketTransport::~SocketTransport() { Close(); }

int64_t SocketTransport::WallMicros() const {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);  // lint:allow-nondeterminism — real transport runs on the wall clock
  return ts.tv_sec * 1000000 + ts.tv_nsec / 1000 - epoch_;
}

void SocketTransport::AdvanceClock() { queue_.RunUntil(WallMicros()); }

StatusCode SocketTransport::Open() {
  PAST_CHECK_MSG(udp_fd_ < 0, "SocketTransport::Open called twice");
  if (options_.host_index >= options_.hosts.size()) {
    return StatusCode::kInvalidArgument;
  }
  const std::string& host = options_.hosts[options_.host_index];
  // The UDP socket and the TCP listener must share one port number (the
  // NodeAddr encodes a single port). With an explicit port that either works
  // or fails; with port 0 we let UDP pick an ephemeral port and retry until
  // TCP can bind the same number.
  const int attempts = options_.port != 0 ? 1 : kEphemeralPortAttempts;
  for (int i = 0; i < attempts; ++i) {
    uint16_t port = options_.port;
    Result<int> udp = UdpBind(host, port, &port);
    if (!udp.ok()) {
      return udp.status();
    }
    Result<int> tcp = TcpListen(host, port, nullptr);
    if (tcp.ok()) {
      udp_fd_ = udp.value();
      listen_fd_ = tcp.value();
      port_ = port;
      timespec ts;
      ::clock_gettime(CLOCK_MONOTONIC, &ts);  // lint:allow-nondeterminism — clock epoch
      epoch_ = ts.tv_sec * 1000000 + ts.tv_nsec / 1000;
      return StatusCode::kOk;
    }
    ::close(udp.value());
  }
  return StatusCode::kUnavailable;
}

void SocketTransport::Close() {
  for (auto& [fd, conn] : conns_) {
    (void)conn;
    ::close(fd);
  }
  conns_.clear();
  outbound_.clear();
  if (udp_fd_ >= 0) {
    ::close(udp_fd_);
    udp_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_ = false;
}

NodeAddr SocketTransport::Register(NetReceiver* receiver) {
  PAST_CHECK_MSG(udp_fd_ >= 0, "Register before Open");
  PAST_CHECK_MSG(receiver_ == nullptr,
                 "SocketTransport hosts exactly one endpoint per process");
  receiver_ = receiver;
  local_addr_ = MakeSockAddr(options_.host_index, port_);
  return local_addr_;
}

void SocketTransport::Send(NodeAddr from, NodeAddr to, SharedBytes wire) {
  (void)from;  // one endpoint per process: the sender is always local_addr_
  if (!up_ || receiver_ == nullptr) {
    obs_.dropped_down->Inc();
    return;
  }
  if (wire.size() > options_.max_frame_bytes) {
    obs_.dropped_oversize->Inc();
    return;
  }
  if (to == local_addr_) {
    // Loopback through the event queue, mirroring the simulator's
    // no-same-stack-delivery property.
    queue_.After(0, [this, wire = std::move(wire)] {
      if (receiver_ != nullptr && up_) {
        receiver_->OnMessage(local_addr_, wire.span());
      }
    });
    return;
  }
  if (SockAddrHostIndex(to) >= options_.hosts.size()) {
    obs_.dropped_misaddressed->Inc();
    return;
  }
  if (wire.size() > options_.udp_max_payload) {
    SendTcp(to, std::move(wire));
    return;
  }
  uint8_t header[kFrameHeaderSize];
  EncodeFrameHeader(local_addr_, to, wire.span(), header);
  sockaddr_in sa;
  if (ResolveIpv4(options_.hosts[SockAddrHostIndex(to)], SockAddrPort(to), &sa) !=
      StatusCode::kOk) {
    obs_.dropped_misaddressed->Inc();
    return;
  }
  iovec iov[2] = {{header, kFrameHeaderSize},
                  {const_cast<uint8_t*>(wire.data()), wire.size()}};
  msghdr msg = {};
  msg.msg_name = &sa;
  msg.msg_namelen = sizeof(sa);
  msg.msg_iov = iov;
  msg.msg_iovlen = wire.empty() ? 1 : 2;
  // Fire and forget: a full socket buffer or ICMP error is a lost message,
  // exactly the loss model the protocol already tolerates.
  if (::sendmsg(udp_fd_, &msg, 0) >= 0) {
    obs_.udp_tx->Inc();
    obs_.bytes_tx->Inc(kFrameHeaderSize + wire.size());
  }
}

void SocketTransport::SendTcp(NodeAddr to, SharedBytes wire) {
  int fd = -1;
  auto it = outbound_.find(to);
  if (it != outbound_.end()) {
    fd = it->second;
  } else {
    Result<int> dialed =
        TcpConnect(options_.hosts[SockAddrHostIndex(to)], SockAddrPort(to));
    if (!dialed.ok()) {
      obs_.conns_dropped->Inc();
      return;
    }
    fd = dialed.value();
    obs_.conns_dialed->Inc();
    Conn& conn = conns_[fd];
    conn.fd = fd;
    conn.peer = to;
    conn.outbound = true;
    conn.connecting = true;
    conn.connect_started = WallMicros();
    conn.reader = FrameReader(options_.max_frame_bytes);
    outbound_[to] = fd;
  }
  Conn& conn = conns_[fd];
  const size_t frame_bytes = kFrameHeaderSize + wire.size();
  if (conn.sendq_bytes + frame_bytes > options_.max_peer_queue_bytes) {
    obs_.dropped_backpressure->Inc();
    return;
  }
  Conn::OutBuf buf;
  buf.header.resize(kFrameHeaderSize);
  EncodeFrameHeader(local_addr_, to, wire.span(), buf.header.data());
  buf.payload = std::move(wire);
  conn.sendq.push_back(std::move(buf));
  conn.sendq_bytes += frame_bytes;
  obs_.tcp_tx->Inc();
  if (!conn.connecting) {
    FlushConn(&conn);
  }
}

void SocketTransport::FlushConn(Conn* conn) {
  while (!conn->sendq.empty()) {
    // Gather the unsent remainder of the front frame (header then payload).
    Conn::OutBuf& front = conn->sendq.front();
    iovec iov[2];
    int iovcnt = 0;
    size_t skip = conn->sent_prefix;
    if (skip < front.header.size()) {
      iov[iovcnt++] = {front.header.data() + skip, front.header.size() - skip};
      skip = 0;
    } else {
      skip -= front.header.size();
    }
    if (skip < front.payload.size()) {
      iov[iovcnt++] = {const_cast<uint8_t*>(front.payload.data()) + skip,
                       front.payload.size() - skip};
    }
    if (iovcnt == 0) {
      conn->sendq.pop_front();
      conn->sent_prefix = 0;
      continue;
    }
    ssize_t n = ::writev(conn->fd, iov, iovcnt);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return;  // socket full; poll will call back when writable
      }
      DropConn(conn->fd);
      return;
    }
    obs_.bytes_tx->Inc(static_cast<uint64_t>(n));
    conn->sent_prefix += static_cast<size_t>(n);
    conn->sendq_bytes -= static_cast<size_t>(n);
    const size_t frame_total = front.header.size() + front.payload.size();
    if (conn->sent_prefix >= frame_total) {
      conn->sent_prefix = 0;
      conn->sendq.pop_front();
    }
  }
}

void SocketTransport::DropConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;
  }
  // The next bulk send to this peer dials a fresh connection; whatever was
  // queued here is lost, per the transport's lossy contract.
  if (it->second.outbound) {
    auto out = outbound_.find(it->second.peer);
    if (out != outbound_.end() && out->second == fd) {
      outbound_.erase(out);
    }
  }
  ::close(fd);
  conns_.erase(it);
  obs_.conns_dropped->Inc();
}

void SocketTransport::AcceptPending() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      return;  // EAGAIN or a transient error; poll will retry
    }
    if (SetNonBlocking(fd) != StatusCode::kOk) {
      ::close(fd);
      continue;
    }
    Conn& conn = conns_[fd];
    conn.fd = fd;
    conn.outbound = false;
    conn.reader = FrameReader(options_.max_frame_bytes);
    obs_.conns_accepted->Inc();
  }
}

void SocketTransport::ReadUdp() {
  uint8_t buf[kUdpRecvBuf];
  for (;;) {
    ssize_t n = ::recvfrom(udp_fd_, buf, sizeof(buf), 0, nullptr, nullptr);
    if (n < 0) {
      return;  // EAGAIN / transient
    }
    obs_.bytes_rx->Inc(static_cast<uint64_t>(n));
    FrameHeader header;
    ByteSpan payload;
    FrameError err = DecodeFrame(ByteSpan(buf, static_cast<size_t>(n)),
                                 options_.max_frame_bytes, &header, &payload);
    if (err != FrameError::kNone) {
      obs_.dropped_decode->Inc();
      continue;
    }
    obs_.udp_rx->Inc();
    DeliverFrame(header, payload);
  }
}

void SocketTransport::ReadConn(Conn* conn) {
  const int fd = conn->fd;
  for (;;) {
    // Read straight into the frame reader: a large frame's body lands in its
    // own buffer, with no intermediate copy.
    std::span<uint8_t> target = conn->reader.ReadTarget();
    ssize_t n = ::read(fd, target.data(), target.size());
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return;
      }
      DropConn(fd);
      return;
    }
    if (n == 0) {
      // Every complete frame was delivered after the read that finished it.
      DropConn(fd);
      return;
    }
    obs_.bytes_rx->Inc(static_cast<uint64_t>(n));
    conn->reader.Commit(static_cast<size_t>(n));
    for (;;) {
      FrameHeader header;
      // Owned here, not by the reader: delivery may drop this connection
      // (and its reader) while protocol code still reads the frame.
      Bytes payload;
      FrameError err = conn->reader.Next(&header, &payload);
      if (err == FrameError::kNeedMore) {
        break;
      }
      if (err != FrameError::kNone) {
        obs_.dropped_decode->Inc();
        DropConn(fd);
        return;
      }
      // Pin the connection to the first frame's sender identity; an
      // in-stream identity change means a confused or hostile peer.
      if (conn->peer == kInvalidAddr) {
        conn->peer = header.from;
      } else if (header.from != conn->peer) {
        obs_.dropped_decode->Inc();
        DropConn(fd);
        return;
      }
      obs_.tcp_rx->Inc();
      DeliverFrame(header, payload);
      // Delivery runs protocol code which may drop this very connection;
      // re-check before touching it again.
      auto it = conns_.find(fd);
      if (it == conns_.end() || &it->second != conn) {
        return;
      }
    }
  }
}

void SocketTransport::DeliverFrame(const FrameHeader& header, ByteSpan payload) {
  if (header.to != local_addr_) {
    obs_.dropped_misaddressed->Inc();
    return;
  }
  if (receiver_ == nullptr || !up_) {
    obs_.dropped_down->Inc();
    return;
  }
  receiver_->OnMessage(header.from, payload);
}

void SocketTransport::RecordRtt(NodeAddr peer, int64_t micros) {
  double sample = static_cast<double>(micros);
  auto [it, inserted] = rtt_ewma_.emplace(peer, sample);
  if (!inserted) {
    it->second = 0.75 * it->second + 0.25 * sample;
  }
}

StatusCode SocketTransport::PollOnce(int timeout_ms) {
  if (udp_fd_ < 0) {
    return StatusCode::kUnavailable;
  }
  AdvanceClock();
  // Bound the wait by the next timer so queue events fire on time.
  SimTime next = queue_.NextDeadline();
  if (next != EventQueue::kNoDeadline) {
    SimTime delta = next - queue_.Now();
    int ms = delta <= 0 ? 0 : static_cast<int>(std::min<SimTime>(
                                  (delta + kMicrosPerMilli - 1) / kMicrosPerMilli,
                                  60 * 1000));
    timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
  }

  std::vector<pollfd> fds;
  fds.push_back({udp_fd_, POLLIN, 0});
  fds.push_back({listen_fd_, POLLIN, 0});
  for (auto& [fd, conn] : conns_) {
    short events = POLLIN;
    if (conn.connecting || !conn.sendq.empty()) {
      events |= POLLOUT;
    }
    fds.push_back({fd, events, 0});
  }
  for (auto& [fd, watcher] : watchers_) {
    fds.push_back({fd, watcher.events, 0});
  }

  int rc = ::poll(fds.data(), fds.size(), timeout_ms);
  AdvanceClock();
  if (rc < 0) {
    return errno == EINTR ? StatusCode::kOk : StatusCode::kInternal;
  }
  for (const pollfd& p : fds) {
    if (p.revents == 0) {
      continue;
    }
    if (p.fd == udp_fd_) {
      ReadUdp();
      continue;
    }
    if (p.fd == listen_fd_) {
      AcceptPending();
      continue;
    }
    auto watcher = watchers_.find(p.fd);
    if (watcher != watchers_.end()) {
      watcher->second.cb(p.fd, p.revents);
      continue;
    }
    auto it = conns_.find(p.fd);
    if (it == conns_.end()) {
      continue;  // dropped earlier in this round
    }
    Conn* conn = &it->second;
    if ((p.revents & POLLOUT) != 0 && conn->connecting) {
      if (ConnectResult(p.fd) != StatusCode::kOk) {
        DropConn(p.fd);
        continue;
      }
      conn->connecting = false;
      RecordRtt(conn->peer, WallMicros() - conn->connect_started);
      FlushConn(conn);
      it = conns_.find(p.fd);
      if (it == conns_.end()) {
        continue;
      }
      conn = &it->second;
    } else if ((p.revents & POLLOUT) != 0) {
      FlushConn(conn);
      it = conns_.find(p.fd);
      if (it == conns_.end()) {
        continue;
      }
      conn = &it->second;
    }
    if ((p.revents & (POLLIN | POLLHUP)) != 0) {
      ReadConn(conn);
      it = conns_.find(p.fd);
      if (it == conns_.end()) {
        continue;
      }
      conn = &it->second;
    }
    if ((p.revents & (POLLERR | POLLNVAL)) != 0) {
      DropConn(p.fd);
    }
  }
  return StatusCode::kOk;
}

void SocketTransport::Run() {
  running_ = true;
  while (running_ && udp_fd_ >= 0) {
    StatusCode code = PollOnce(-1);
    if (code != StatusCode::kOk) {
      break;
    }
  }
  running_ = false;
}

void SocketTransport::WatchFd(int fd, short events, FdCallback cb) {
  watchers_[fd] = Watcher{events, std::move(cb)};
}

void SocketTransport::UnwatchFd(int fd) { watchers_.erase(fd); }

double SocketTransport::Proximity(NodeAddr a, NodeAddr b) const {
  if (a == b) {
    return 0.0;
  }
  NodeAddr peer = a == local_addr_ ? b : (b == local_addr_ ? a : kInvalidAddr);
  if (peer == kInvalidAddr) {
    return 0.0;  // a real endpoint can only measure its own distances
  }
  auto it = rtt_ewma_.find(peer);
  return it != rtt_ewma_.end() ? it->second : 0.0;
}

void SocketTransport::SetUp(NodeAddr addr, bool up) {
  // Only the local endpoint can be switched; a real transport has no
  // authority over remote liveness.
  if (addr == local_addr_) {
    up_ = up;
  }
}

bool SocketTransport::IsUp(NodeAddr addr) const {
  if (addr == local_addr_) {
    return up_;
  }
  // Optimistic: remote failure knowledge comes from protocol timeouts.
  return true;
}

}  // namespace past
