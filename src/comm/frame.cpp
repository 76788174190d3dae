#include "comm/frame.hpp"

#include <algorithm>
#include <cstring>

namespace vira::comm {

void encode_frame_header(std::byte* out, std::int32_t source, std::int32_t tag,
                         std::uint64_t payload_size, bool compressed) {
  const std::uint64_t size_field = payload_size | (compressed ? kCompressedFlag : 0);
  std::memcpy(out, &source, sizeof(source));
  std::memcpy(out + sizeof(source), &tag, sizeof(tag));
  std::memcpy(out + sizeof(source) + sizeof(tag), &size_field, sizeof(size_field));
}

FrameHeader decode_frame_header(const std::byte* in) {
  FrameHeader header;
  std::uint64_t size_field = 0;
  std::memcpy(&header.source, in, sizeof(header.source));
  std::memcpy(&header.tag, in + sizeof(header.source), sizeof(header.tag));
  std::memcpy(&size_field, in + sizeof(header.source) + sizeof(header.tag), sizeof(size_field));
  header.compressed = (size_field & kCompressedFlag) != 0;
  header.payload_size = size_field & ~kCompressedFlag;
  return header;
}

std::vector<std::byte> encode_frame(const Message& msg, bool compressed) {
  std::vector<std::byte> frame(kFrameHeaderBytes + msg.payload.size());
  encode_frame_header(frame.data(), msg.source, msg.tag, msg.payload.size(), compressed);
  if (msg.payload.size() > 0) {
    std::memcpy(frame.data() + kFrameHeaderBytes, msg.payload.data(), msg.payload.size());
  }
  return frame;
}

bool pack_payload(util::ByteBuffer& body) {
  auto packed = util::compress(body.data(), body.size(), util::Codec::kLz);
  if (packed.size() >= body.size()) {
    return false;
  }
  body = util::ByteBuffer(std::move(packed));
  return true;
}

std::optional<Message> unpack_frame(const FrameHeader& header, std::vector<std::byte> payload,
                                    std::uint64_t max_payload) {
  Message msg;
  msg.source = header.source;
  msg.tag = header.tag;
  if (header.compressed) {
    auto raw = util::decompress(payload.data(), payload.size(), max_payload);
    if (!raw) {
      return std::nullopt;
    }
    payload = std::move(*raw);
  }
  msg.payload = util::ByteBuffer(std::move(payload));
  return msg;
}

bool FrameParser::fail(std::string reason) {
  failed_ = true;
  error_ = std::move(reason);
  payload_.clear();
  payload_.shrink_to_fit();
  return false;
}

bool FrameParser::finish_frame(std::vector<Message>& out) {
  auto msg = unpack_frame(header_, std::move(payload_), max_payload_);
  if (!msg) {
    return fail("undecodable compressed frame payload");
  }
  out.push_back(std::move(*msg));
  payload_ = {};
  payload_fill_ = 0;
  header_fill_ = 0;
  return true;
}

bool FrameParser::feed(const std::byte* data, std::size_t size, std::vector<Message>& out) {
  if (failed_) {
    return false;
  }
  while (size > 0) {
    if (header_fill_ < kFrameHeaderBytes) {
      const std::size_t take = std::min(size, kFrameHeaderBytes - header_fill_);
      std::memcpy(header_bytes_ + header_fill_, data, take);
      header_fill_ += take;
      data += take;
      size -= take;
      if (header_fill_ < kFrameHeaderBytes) {
        return true;  // header still incomplete; wait for more bytes
      }
      header_ = decode_frame_header(header_bytes_);
      if (header_.payload_size > max_payload_) {
        return fail("frame payload size " + std::to_string(header_.payload_size) +
                    " exceeds cap " + std::to_string(max_payload_));
      }
      // Allocation happens only now, after the validated length prefix —
      // never speculatively from partial input.
      payload_.resize(static_cast<std::size_t>(header_.payload_size));
      payload_fill_ = 0;
      if (header_.payload_size == 0) {
        if (!finish_frame(out)) {
          return false;
        }
      }
      continue;
    }
    const std::size_t take = std::min(size, payload_.size() - payload_fill_);
    std::memcpy(payload_.data() + payload_fill_, data, take);
    payload_fill_ += take;
    data += take;
    size -= take;
    if (payload_fill_ == payload_.size()) {
      if (!finish_frame(out)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace vira::comm
