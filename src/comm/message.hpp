#pragma once

/// \file message.hpp
/// Wire unit of Viracocha's communication layer.
///
/// The paper's layer 1 "hides implementation details about used
/// communication protocols" — scheduler and workers talk through a generic
/// interface whether the bytes move over MPI or TCP/IP. A Message carries a
/// source endpoint, an integer tag (negative tags are reserved for the
/// framework's collectives and control traffic) and an opaque payload.

#include <cstdint>

#include "util/byte_buffer.hpp"

namespace vira::comm {

struct Message {
  int source = -1;
  int tag = 0;
  util::ByteBuffer payload;

  /// Local trace metadata (never serialized on any wire): the sender may
  /// annotate a message with the span context it belongs to, so a link
  /// implementation that defers the actual socket write (the event-loop
  /// frontend's queued sends) can open a child span covering queue + write
  /// time. 0 = untraced.
  std::uint64_t trace_request = 0;
  std::uint64_t trace_span = 0;
};

/// Wildcards for receive matching (mirroring MPI_ANY_SOURCE / MPI_ANY_TAG).
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = INT32_MIN;

/// The filter of one receive: a source (or kAnySource), a tag (kAnyTag: any)
/// and optionally a second tag, so one receive serves a loop handling both.
struct Match {
  int source;
  int tag;
  int other_tag = kAnyTag;  ///< kAnyTag here adds nothing

  bool operator()(const Message& msg) const {
    return (source == kAnySource || msg.source == source) &&
           (tag == kAnyTag || msg.tag == tag || msg.tag == other_tag);
  }
};

}  // namespace vira::comm
