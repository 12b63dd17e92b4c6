// BSP message representation.
//
// The Green BSP library of the paper (Appendix A) uses fixed 16-byte packets
// (`bspPkt`). Following the authors' own footnote 2 — "we are currently
// changing our system to allow the programmer to send packets of any
// arbitrary length" — the core runtime carries arbitrary-length payloads and
// accounts h-relations in 16-byte packet units so the cost model matches the
// paper. A fixed-size compatibility layer lives in green_bsp.h.
//
// A Message is a lightweight *view*: the payload bytes live in an arena owned
// by the runtime (core/arena.hpp) and stay valid until the receiving worker's
// next sync(). Messages are cheap to copy; copying one copies the view, not
// the payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace gbsp {

/// Non-owning view of a payload byte range. Mimics the read-side surface of
/// the std::vector<std::byte> payload this runtime historically used, so
/// application code (`m->payload.data()`, `m->payload.size()`) is unchanged.
struct ByteView {
  const std::byte* ptr = nullptr;
  std::size_t len = 0;

  [[nodiscard]] const std::byte* data() const { return ptr; }
  [[nodiscard]] std::size_t size() const { return len; }
  [[nodiscard]] bool empty() const { return len == 0; }
  [[nodiscard]] const std::byte* begin() const { return ptr; }
  [[nodiscard]] const std::byte* end() const { return ptr + len; }
  std::byte operator[](std::size_t i) const { return ptr[i]; }
};

struct Message {
  std::uint32_t source = 0;  ///< pid of the sender
  std::uint32_t seq = 0;     ///< per (source,dest) sequence number
  ByteView payload;          ///< borrowed from the runtime's message arena

  [[nodiscard]] std::size_t size() const { return payload.size(); }

  /// Reinterprets the payload as a trivially copyable T.
  /// Precondition: payload.size() == sizeof(T). Copies to avoid alignment UB.
  template <typename T>
  [[nodiscard]] T as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    T out;
    std::memcpy(&out, payload.data(), sizeof(T));
    return out;
  }

  /// True when the payload holds exactly one T.
  template <typename T>
  [[nodiscard]] bool holds() const {
    return payload.size() == sizeof(T);
  }

  /// Views the payload as an array of trivially copyable T.
  /// Precondition: payload.size() % sizeof(T) == 0.
  template <typename T>
  void copy_array(std::vector<T>& out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t n = payload.size() / sizeof(T);
    out.resize(n);
    if (n != 0) std::memcpy(out.data(), payload.data(), n * sizeof(T));
  }

  [[nodiscard]] std::size_t count_of(std::size_t elem_size) const {
    return payload.size() / elem_size;
  }
};

/// The h-relation accounting unit: the paper counts 16-byte packets
/// throughout.
inline constexpr std::size_t kPacketBytes = 16;

/// Number of `packet_unit`-byte packets a message of `bytes` occupies (>= 1).
inline std::uint64_t packets_for_bytes(std::size_t bytes,
                                       std::size_t packet_unit = kPacketBytes) {
  if (packet_unit == 0) return 1;
  // Fast path: the paper's fine-grained applications send single-packet
  // messages, which must not pay a hardware division on every send.
  if (bytes <= packet_unit) return 1;
  return (bytes + packet_unit - 1) / packet_unit;
}

}  // namespace gbsp
