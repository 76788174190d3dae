#include "comm/client_link.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "comm/frame.hpp"
#include "util/blocking_queue.hpp"
#include "util/log.hpp"

namespace vira::comm {

void WireHello::serialize(util::ByteBuffer& out) const {
  out.write<std::uint32_t>(magic);
  out.write<std::uint32_t>(version);
  out.write<std::uint32_t>(features);
  out.write<std::uint8_t>(static_cast<std::uint8_t>(codec));
}

WireHello WireHello::deserialize(util::ByteBuffer& in) {
  WireHello hello;
  hello.magic = in.read<std::uint32_t>();
  hello.version = in.read<std::uint32_t>();
  hello.features = in.read<std::uint32_t>();
  hello.codec = static_cast<util::Codec>(in.read<std::uint8_t>());
  return hello;
}

// ---------------------------------------------------------------------------
// In-process pair
// ---------------------------------------------------------------------------

namespace {

class InProcLink final : public ClientLink {
 public:
  using Queue = util::BlockingQueue<Message>;

  InProcLink(std::shared_ptr<Queue> outgoing, std::shared_ptr<Queue> incoming)
      : outgoing_(std::move(outgoing)), incoming_(std::move(incoming)) {}

  void send(Message msg) override { outgoing_->push(std::move(msg)); }

  std::optional<Message> recv(std::chrono::milliseconds timeout) override {
    return incoming_->pop_for(timeout);
  }

  void close() override {
    outgoing_->close();
    incoming_->close();
  }

  bool closed() const override { return incoming_->closed(); }

 private:
  std::shared_ptr<Queue> outgoing_;
  std::shared_ptr<Queue> incoming_;
};

}  // namespace

std::pair<std::shared_ptr<ClientLink>, std::shared_ptr<ClientLink>> make_inproc_link_pair() {
  auto a_to_b = std::make_shared<InProcLink::Queue>();
  auto b_to_a = std::make_shared<InProcLink::Queue>();
  return {std::make_shared<InProcLink>(a_to_b, b_to_a),
          std::make_shared<InProcLink>(b_to_a, a_to_b)};
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

namespace {

/// Blocking framed link (comm/frame.hpp layout).
class TcpLink final : public ClientLink {
 public:
  explicit TcpLink(int fd) : fd_(fd) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpLink() override {
    close();
    // The fd itself is released only here, when no other thread can still
    // be blocked in recv()/send() on it (the owner joined its consumers).
    ::close(fd_);
  }

  /// Enables compressed frames after a successful hello/ack negotiation.
  /// Call before the link is shared across threads.
  void enable_compression(std::size_t threshold) {
    compress_ = true;
    compress_threshold_ = threshold;
  }

  void send(Message msg) override {
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (closed_) {
      return;
    }
    // Negotiated wire compression: large frames shrink to a self-describing
    // util::compress() stream; incompressible payloads ship raw (bypass).
    const bool compressed = compress_ && msg.payload.size() >= compress_threshold_ &&
                            pack_payload(msg.payload);
    std::byte header[kFrameHeaderBytes];
    encode_frame_header(header, msg.source, msg.tag, msg.payload.size(), compressed);
    if (!write_all(header, sizeof(header)) || !write_all(msg.payload.data(), msg.payload.size())) {
      do_close();
    }
  }

  std::optional<Message> recv(std::chrono::milliseconds timeout) override {
    if (closed_.load()) {
      return std::nullopt;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (ready <= 0) {
      // EINTR while waiting reads as a timeout; callers poll again.
      return std::nullopt;
    }
    std::byte header_bytes[kFrameHeaderBytes];
    if (!read_all(header_bytes, sizeof(header_bytes))) {
      do_close();
      return std::nullopt;
    }
    const FrameHeader header = decode_frame_header(header_bytes);
    if (header.payload_size > kMaxFramePayload) {
      do_close();
      return std::nullopt;
    }
    std::vector<std::byte> payload(header.payload_size);
    if (!read_all(payload.data(), payload.size())) {
      do_close();
      return std::nullopt;
    }
    auto msg = unpack_frame(header, std::move(payload));
    if (!msg) {
      VIRA_WARN("tcp_link") << "undecodable compressed frame; dropping link";
      do_close();
    }
    return msg;
  }

  void close() override {
    std::lock_guard<std::mutex> lock(send_mutex_);
    do_close();
  }

  bool closed() const override { return closed_; }

 private:
  /// Half-close: wakes any thread blocked in recv()/send() via shutdown();
  /// the descriptor stays open until destruction so concurrent syscalls
  /// never race against close().
  void do_close() {
    if (!closed_.exchange(true)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  /// Loops until every byte is out. Partial writes simply continue the
  /// loop; EINTR (a signal landed mid-syscall) retries instead of killing
  /// the link; MSG_NOSIGNAL turns a peer disconnect into EPIPE rather than
  /// a process-fatal SIGPIPE — a client vanishing mid-stream must never
  /// take the server down with it.
  bool write_all(const void* data, std::uint64_t size) {
    const char* cursor = static_cast<const char*>(data);
    while (size > 0) {
      const ssize_t written = ::send(fd_, cursor, size, MSG_NOSIGNAL);
      if (written < 0 && errno == EINTR) {
        continue;
      }
      if (written <= 0) {
        return false;
      }
      cursor += written;
      size -= static_cast<std::uint64_t>(written);
    }
    return true;
  }

  bool read_all(void* data, std::uint64_t size) {
    char* cursor = static_cast<char*>(data);
    while (size > 0) {
      const ssize_t got = ::recv(fd_, cursor, size, 0);
      if (got < 0 && errno == EINTR) {
        continue;
      }
      if (got <= 0) {
        return false;
      }
      cursor += got;
      size -= static_cast<std::uint64_t>(got);
    }
    return true;
  }

  int fd_;
  std::mutex send_mutex_;
  std::atomic<bool> closed_{false};
  bool compress_ = false;
  std::size_t compress_threshold_ = 4096;
};

}  // namespace

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("TcpListener: socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("TcpListener: bind() failed");
  }
  // Swarm-sized backlog: hundreds of clients connect in one burst during
  // bench_swarm; a backlog of 8 made the kernel drop SYNs under that storm.
  if (::listen(fd_, 512) != 0) {
    ::close(fd_);
    throw std::runtime_error("TcpListener: listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() { close(); }

void TcpListener::stop() {
  if (!stopped_.exchange(true) && fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void TcpListener::close() {
  stop();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::unique_ptr<ClientLink> TcpListener::accept(std::chrono::milliseconds timeout) {
  if (fd_ < 0 || stopped_.load()) {
    return nullptr;
  }
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
  if (ready <= 0) {
    return nullptr;
  }
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) {
    return nullptr;
  }
  return std::make_unique<TcpLink>(client);
}

std::unique_ptr<ClientLink> tcp_connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("tcp_connect: socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("tcp_connect: bad host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("tcp_connect: connect() to " + host + ":" + std::to_string(port) +
                             " failed");
  }
  return std::make_unique<TcpLink>(fd);
}

std::unique_ptr<ClientLink> tcp_connect(const std::string& host, std::uint16_t port,
                                        const WireOptions& options) {
  auto link = tcp_connect(host, port);

  WireHello hello;
  hello.features = options.compression ? kFeatureWireCompression : 0;
  Message msg;
  msg.source = -1;
  msg.tag = kTagHello;
  hello.serialize(msg.payload);
  link->send(std::move(msg));

  // The ack is guaranteed to be the first server → client frame: the
  // scheduler only ever sends in response to a request, and we have not
  // submitted anything yet.
  auto reply = link->recv(options.hello_timeout);
  if (!reply || reply->tag != kTagHelloAck) {
    link->close();
    throw std::runtime_error("tcp_connect: no hello ack from " + host + ":" +
                             std::to_string(port));
  }
  const auto ack = WireHello::deserialize(reply->payload);
  if (ack.magic != kWireMagic) {
    link->close();
    throw std::runtime_error("tcp_connect: bad hello ack magic");
  }
  if ((ack.features & kFeatureWireCompression) != 0) {
    static_cast<TcpLink&>(*link).enable_compression(options.compress_threshold);
  }
  return link;
}

}  // namespace vira::comm
