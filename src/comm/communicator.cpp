#include "comm/communicator.hpp"

namespace vira::comm {

Communicator::Communicator(std::shared_ptr<Transport> transport, int rank)
    : transport_(std::move(transport)), rank_(rank) {
  if (rank_ < 0 || rank_ >= transport_->size()) {
    throw std::out_of_range("Communicator: rank outside transport");
  }
}

void Communicator::send(int dest, int tag, util::ByteBuffer payload) {
  if (tag < 0) {
    throw std::invalid_argument("Communicator::send: negative tags are reserved");
  }
  send_internal(dest, tag, std::move(payload));
}

void Communicator::send_internal(int dest, int tag, util::ByteBuffer payload) {
  Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.payload = std::move(payload);
  transport_->send(dest, std::move(msg));
}

std::optional<Message> Communicator::recv_until(const Match& match, util::TimePoint deadline) {
  auto msg = transport_->recv(rank_, match, deadline);
  if (!msg && transport_->is_shut_down()) {
    throw TransportClosed();
  }
  return msg;
}

std::optional<std::pair<int, int>> Communicator::probe(std::chrono::milliseconds timeout) {
  auto header = transport_->probe(rank_, util::clock_now() + timeout);
  if (!header && transport_->is_shut_down()) {
    throw TransportClosed();
  }
  return header;
}

void Communicator::barrier() {
  constexpr int kRoot = 0;
  util::ByteBuffer token;
  if (rank_ == kRoot) {
    // Receive from each specific peer: per-pair FIFO then guarantees a
    // message from barrier N+1 can never be mistaken for barrier N.
    for (int peer = 1; peer < size(); ++peer) {
      (void)recv(peer, kTagBarrierArrive);
    }
    for (int peer = 1; peer < size(); ++peer) {
      send_internal(peer, kTagBarrierRelease, util::ByteBuffer());
    }
  } else {
    send_internal(kRoot, kTagBarrierArrive, std::move(token));
    (void)recv(kRoot, kTagBarrierRelease);
  }
}

util::ByteBuffer Communicator::broadcast(util::ByteBuffer payload, int root) {
  if (rank_ == root) {
    for (int peer = 0; peer < size(); ++peer) {
      if (peer != root) {
        util::ByteBuffer copy = payload;
        send_internal(peer, kTagBroadcast, std::move(copy));
      }
    }
    return payload;
  }
  return recv(root, kTagBroadcast).payload;
}

std::vector<util::ByteBuffer> Communicator::gather(util::ByteBuffer payload, int root) {
  if (rank_ != root) {
    send_internal(root, kTagGather, std::move(payload));
    return {};
  }
  std::vector<util::ByteBuffer> results(static_cast<std::size_t>(size()));
  results[static_cast<std::size_t>(root)] = std::move(payload);
  // Per-source receives keep successive gather rounds separated (FIFO per
  // pair); ANY_SOURCE could steal a fast peer's next-round contribution.
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == root) {
      continue;
    }
    Message msg = recv(peer, kTagGather);
    results[static_cast<std::size_t>(peer)] = std::move(msg.payload);
  }
  return results;
}

double Communicator::reduce_sum(double value, int root) {
  if (rank_ != root) {
    util::ByteBuffer payload;
    payload.write<double>(value);
    send_internal(root, kTagReduce, std::move(payload));
    return value;
  }
  double sum = value;
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == root) {
      continue;
    }
    Message msg = recv(peer, kTagReduce);
    sum += msg.payload.read<double>();
  }
  return sum;
}

}  // namespace vira::comm
