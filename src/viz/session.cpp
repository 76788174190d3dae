#include "viz/session.hpp"

#include "util/clock.hpp"
#include "util/log.hpp"

namespace vira::viz {

std::optional<Packet> ResultStream::next(std::chrono::milliseconds timeout) {
  return queue_.pop_for(timeout);
}

core::CommandStats ResultStream::wait(std::vector<util::ByteBuffer>* fragments,
                                      std::chrono::milliseconds timeout) {
  const auto deadline = util::clock_now() + timeout;
  const auto any = [](const Packet&) { return true; };
  while (auto packet = queue_.pop_until(any, deadline)) {
    switch (packet->kind) {
      case Packet::Kind::kPartial:
      case Packet::Kind::kFinal:
        if (fragments != nullptr) {
          fragments->push_back(std::move(packet->payload));
        }
        break;
      case Packet::Kind::kComplete:
        return packet->stats;
      case Packet::Kind::kRejected: {
        // Terminal without a kTagComplete: synthesize failed stats so
        // callers see a uniform CommandStats either way.
        VIRA_WARN("viz") << "request " << request_id_ << " rejected: " << packet->error;
        core::CommandStats stats;
        stats.request_id = request_id_;
        stats.success = false;
        stats.error = packet->error;
        return stats;
      }
      case Packet::Kind::kError:
        VIRA_WARN("viz") << "request " << request_id_ << " error: " << packet->error;
        break;
      case Packet::Kind::kProgress:
      case Packet::Kind::kDegraded:
        break;
    }
  }
  // No terminal packet: timed out, or the stream closed (link died, session
  // closed) and none is ever coming.
  throw std::runtime_error(queue_.closed()
                               ? "ResultStream::wait: stream closed before completion"
                               : "ResultStream::wait: timed out");
}

ExtractionSession::ExtractionSession(std::shared_ptr<comm::ClientLink> link)
    : link_(std::move(link)) {
  receiver_ = std::thread([this] { receive_loop(); });
}

ExtractionSession::~ExtractionSession() { close(); }

void ExtractionSession::close() {
  if (running_.exchange(false)) {
    {
      // Stop admitting new streams before the link goes down: a submit
      // racing this close either registers first (and is closed out by the
      // loop below) or sees accepting_ == false and is rejected locally.
      std::lock_guard<std::mutex> lock(streams_mutex_);
      accepting_ = false;
    }
    link_->close();
    if (receiver_.joinable()) {
      receiver_.join();
    }
    std::lock_guard<std::mutex> lock(streams_mutex_);
    for (auto& [id, stream] : streams_) {
      stream->queue_.close();
    }
  }
}

std::shared_ptr<ResultStream> ExtractionSession::submit(const std::string& command,
                                                        const util::ParamList& params) {
  core::CommandRequest request;
  request.request_id = next_request_id_.fetch_add(1);
  request.command = command;
  request.params = params;

  auto span = obs::Tracer::instance().start("client.request", request.request_id,
                                            obs::kClientRank, /*parent_id=*/0);
  request.parent_span = span.context().span_id;

  auto stream = std::shared_ptr<ResultStream>(new ResultStream(request.request_id));
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
    if (!accepting_) {
      // Session already closed: the receiver thread is gone, so a stream
      // registered now would never terminate and wait() would hang (the
      // link send below would be silently dropped, too). Answer locally
      // with a terminal rejection instead. Checked under the same lock
      // that registers the stream, so a racing close() either sees the
      // registration (and closes the queue) or we see accepting_ false.
      Packet rejected{Packet::Kind::kRejected, {}, {}, 0.0, {}, {}, 0, 0.0};
      rejected.error = "session closed";
      stream->queue_.push(std::move(rejected));
      stream->queue_.close();
      return stream;
    }
    streams_[request.request_id] = stream;
    submit_times_[request.request_id] = std::chrono::steady_clock::now();
    if (span.active()) {
      request_spans_[request.request_id] = std::move(span);
    }
  }

  util::ByteBuffer payload;
  request.serialize(payload);
  comm::Message msg;
  msg.tag = core::kTagSubmit;
  msg.payload = std::move(payload);
  link_->send(std::move(msg));
  return stream;
}

void ExtractionSession::cancel(std::uint64_t request_id) {
  util::ByteBuffer payload;
  payload.write<std::uint64_t>(request_id);
  comm::Message msg;
  msg.tag = core::kTagCancel;
  msg.payload = std::move(payload);
  link_->send(std::move(msg));
}

void ExtractionSession::receive_loop() {
  while (running_) {
    auto msg = link_->recv(std::chrono::milliseconds(50));
    if (!msg) {
      if (link_->closed()) {
        break;
      }
      continue;
    }

    Packet packet{Packet::Kind::kComplete, {}, {}, 0.0, {}, {}, 0, 0.0};
    std::uint64_t request_id = 0;

    switch (msg->tag) {
      case core::kTagPartial:
      case core::kTagFinal: {
        packet.kind = msg->tag == core::kTagPartial ? Packet::Kind::kPartial
                                                    : Packet::Kind::kFinal;
        packet.header = core::FragmentHeader::deserialize(msg->payload);
        const auto body_size = msg->payload.read<std::uint64_t>();
        std::vector<std::byte> body(body_size);
        msg->payload.read_raw(body.data(), body_size);
        packet.payload = util::ByteBuffer(std::move(body));
        request_id = packet.header.request_id;
        break;
      }
      case core::kTagProgress: {
        packet.kind = Packet::Kind::kProgress;
        request_id = msg->payload.read<std::uint64_t>();
        packet.progress = msg->payload.read<double>();
        break;
      }
      case core::kTagError: {
        packet.kind = Packet::Kind::kError;
        request_id = msg->payload.read<std::uint64_t>();
        packet.error = msg->payload.read_string();
        break;
      }
      case core::kTagComplete: {
        packet.kind = Packet::Kind::kComplete;
        packet.stats = core::CommandStats::deserialize(msg->payload);
        request_id = packet.stats.request_id;
        break;
      }
      case core::kTagDegraded: {
        packet.kind = Packet::Kind::kDegraded;
        request_id = msg->payload.read<std::uint64_t>();
        packet.retries = msg->payload.read<std::uint32_t>();
        break;
      }
      case core::kTagRejected: {
        packet.kind = Packet::Kind::kRejected;
        request_id = msg->payload.read<std::uint64_t>();
        packet.error = msg->payload.read_string();
        break;
      }
      default:
        VIRA_WARN("viz") << "unknown packet tag " << msg->tag;
        continue;
    }

    std::shared_ptr<ResultStream> stream;
    {
      std::lock_guard<std::mutex> lock(streams_mutex_);
      auto it = streams_.find(request_id);
      if (it != streams_.end()) {
        stream = it->second;
        auto time_it = submit_times_.find(request_id);
        if (time_it != submit_times_.end()) {
          packet.client_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - time_it->second)
                  .count();
        }
      }
    }
    if (!stream) {
      continue;
    }
    const bool is_data =
        packet.kind == Packet::Kind::kPartial || packet.kind == Packet::Kind::kFinal;
    if (is_data && stream->first_data_seconds_.load() < 0.0) {
      stream->first_data_seconds_.store(packet.client_seconds);
    }
    if (packet.kind == Packet::Kind::kDegraded) {
      stream->retry_count_.store(packet.retries);
      VIRA_WARN("viz") << "request " << request_id << " degraded (retry " << packet.retries
                       << "): work group re-formed, stream continues";
    }
    const bool complete =
        packet.kind == Packet::Kind::kComplete || packet.kind == Packet::Kind::kRejected;
    stream->queue_.push(std::move(packet));
    if (complete) {
      std::lock_guard<std::mutex> lock(streams_mutex_);
      streams_.erase(request_id);
      submit_times_.erase(request_id);
      request_spans_.erase(request_id);  // ends the client.request span
      stream->queue_.close();
    }
  }
  // Link gone: close every stream so waiters unblock.
  std::lock_guard<std::mutex> lock(streams_mutex_);
  for (auto& [id, stream] : streams_) {
    stream->queue_.close();
  }
}

}  // namespace vira::viz
