// Unit tests for the arena-backed message storage (core/arena.hpp): frame
// layout, the inline/out-of-line threshold, slab recycling through the pool,
// and splice semantics — the invariants the runtime's zero-allocation
// message path is built on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/arena.hpp"

namespace gbsp {
namespace {

std::vector<std::byte> pattern(std::size_t len, std::uint8_t salt) {
  std::vector<std::byte> v(len);
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = static_cast<std::byte>(static_cast<std::uint8_t>(i * 37 + salt));
  }
  return v;
}

void append_pattern(MessageArena& a, std::uint32_t source, std::uint32_t seq,
                    std::size_t len) {
  const auto v = pattern(len, static_cast<std::uint8_t>(seq));
  std::byte* slot = a.append(source, seq, len);
  ASSERT_NE(slot, nullptr);
  if (len != 0) std::memcpy(slot, v.data(), len);
}

struct Seen {
  std::uint32_t source;
  std::uint32_t seq;
  std::size_t len;
  bool inline_stored;
};

std::vector<Seen> drain(const MessageArena& a, bool verify_payload = true) {
  std::vector<Seen> out;
  a.for_each_frame([&](const MessageArena::Frame& f) {
    if (verify_payload && f.len != 0) {  // memcmp takes no null pointer
      const auto want =
          pattern(static_cast<std::size_t>(f.len),
                  static_cast<std::uint8_t>(f.seq));
      EXPECT_EQ(std::memcmp(f.payload(), want.data(), want.size()), 0)
          << "seq " << f.seq;
    }
    out.push_back({f.source, f.seq, static_cast<std::size_t>(f.len),
                   f.payload() == f.inl});
  });
  return out;
}

TEST(MessageArena, AppendAndIterateInOrder) {
  MessageArena a;
  for (std::uint32_t i = 0; i < 100; ++i) append_pattern(a, 7, i, 16);
  EXPECT_EQ(a.message_count(), 100u);
  EXPECT_EQ(a.payload_bytes(), 1600u);
  const auto seen = drain(a);
  ASSERT_EQ(seen.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(seen[i].source, 7u);
    EXPECT_EQ(seen[i].seq, i);
    EXPECT_TRUE(seen[i].inline_stored);
  }
}

TEST(MessageArena, ZeroLengthPayloadGetsAFrame) {
  MessageArena a;
  std::byte* slot = a.append(3, 0, 0);
  EXPECT_NE(slot, nullptr);  // bspGetPkt-style callers may deref-at-zero-len
  EXPECT_EQ(a.message_count(), 1u);
  EXPECT_EQ(a.payload_bytes(), 0u);
  const auto seen = drain(a);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].len, 0u);
  EXPECT_TRUE(seen[0].inline_stored);
}

TEST(MessageArena, InlineThresholdStraddle) {
  // 31/32 fit the frame's inline slot; 33 must go out of line. All survive.
  MessageArena a;
  append_pattern(a, 1, 0, MessageArena::kInlineCapacity - 1);
  append_pattern(a, 1, 1, MessageArena::kInlineCapacity);
  append_pattern(a, 1, 2, MessageArena::kInlineCapacity + 1);
  const auto seen = drain(a);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_TRUE(seen[0].inline_stored);
  EXPECT_TRUE(seen[1].inline_stored);
  EXPECT_FALSE(seen[2].inline_stored);
}

TEST(MessageArena, PayloadPointersAreAligned) {
  MessageArena a;
  for (std::uint32_t i = 0; i < 20; ++i) {
    append_pattern(a, 0, i, (i % 2) == 0 ? 24u : 1000u);
  }
  a.for_each_frame([&](const MessageArena::Frame& f) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f.payload()) % 8, 0u);
    if (f.len > MessageArena::kInlineCapacity) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f.payload()) % 16, 0u);
    }
  });
}

TEST(MessageArena, HugeSinglePayloadExceedsGrowthCap) {
  MessageArena a;
  const std::size_t huge = 3u << 20;  // 3 MiB, past the 1 MiB doubling cap
  append_pattern(a, 0, 0, huge);
  EXPECT_EQ(a.payload_bytes(), huge);
  drain(a);
}

TEST(MessageArena, ClearRecyclesSlabsInPlace) {
  MessageArena a;
  for (std::uint32_t i = 0; i < 5000; ++i) append_pattern(a, 0, i, 48);
  const std::size_t slabs_after_fill = a.slab_count();
  EXPECT_GT(slabs_after_fill, 0u);
  for (int cycle = 0; cycle < 5; ++cycle) {
    a.clear();
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.slab_count(), slabs_after_fill);  // slabs retained
    for (std::uint32_t i = 0; i < 5000; ++i) append_pattern(a, 0, i, 48);
    // Refilling the same volume must not grow the chain.
    EXPECT_EQ(a.slab_count(), slabs_after_fill);
    drain(a);
  }
}

TEST(MessageArena, GeometricGrowthKeepsSlabChainShort) {
  MessageArena a;
  for (std::uint32_t i = 0; i < 100000; ++i) append_pattern(a, 0, i, 16);
  // 100k frames * 56 B ~ 5.6 MB; doubling from 4 KiB to the 1 MiB cap must
  // land far below one-slab-per-kilobyte.
  EXPECT_LT(a.slab_count(), 32u);
}

TEST(MessageArena, SpliceMovesFramesWithoutCopying) {
  SlabPool pool;
  MessageArena dst(&pool);
  MessageArena src(&pool);
  append_pattern(dst, 0, 0, 16);
  append_pattern(src, 1, 0, 16);
  append_pattern(src, 1, 1, 500);  // out-of-line survives the move
  const std::byte* payload_before = nullptr;
  src.for_each_frame([&](const MessageArena::Frame& f) {
    if (f.len == 500) payload_before = f.payload();
  });
  dst.splice_from(src);
  EXPECT_TRUE(src.empty());
  EXPECT_EQ(src.slab_count(), 0u);
  EXPECT_EQ(dst.message_count(), 3u);
  EXPECT_EQ(dst.payload_bytes(), 532u);
  // Frame order: dst's own frames first, then src's, and the out-of-line
  // payload kept its address (slab ownership moved, bytes did not).
  const auto seen = drain(dst);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].source, 0u);
  EXPECT_EQ(seen[1].source, 1u);
  EXPECT_EQ(seen[2].source, 1u);
  dst.for_each_frame([&](const MessageArena::Frame& f) {
    if (f.len == 500) {
      EXPECT_EQ(f.payload(), payload_before);
    }
  });
}

TEST(MessageArena, SpliceCanContinueAppending) {
  MessageArena dst;
  MessageArena src;
  append_pattern(src, 1, 0, 16);
  dst.splice_from(src);
  append_pattern(dst, 2, 0, 16);
  const auto seen = drain(dst);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].source, 1u);
  EXPECT_EQ(seen[1].source, 2u);
}

TEST(MessageArena, PayloadSpanWalkCoversEveryByteInOrder) {
  // The scatter-gather contract: spans visit every non-empty payload byte in
  // frame order, and their lengths sum to payload_bytes(). Mix inline,
  // out-of-line, and zero-length frames.
  MessageArena a;
  append_pattern(a, 1, 0, 16);    // inline
  a.append(1, 1, 0);              // zero-length: no span
  append_pattern(a, 1, 2, 100);   // out-of-line
  append_pattern(a, 1, 3, 100);   // out-of-line, adjacent in the byte slab
  append_pattern(a, 1, 4, 8);     // inline again
  std::vector<std::byte> pack;
  std::vector<std::byte> walked;
  a.for_each_payload_span(pack, [&](const std::byte* p, std::size_t len) {
    walked.insert(walked.end(), p, p + len);
  });
  ASSERT_EQ(walked.size(), a.payload_bytes());
  std::vector<std::byte> expect;
  for (const auto& [seq, len] :
       std::vector<std::pair<std::uint8_t, std::size_t>>{
           {0, 16}, {2, 100}, {3, 100}, {4, 8}}) {
    const auto v = pattern(len, seq);
    expect.insert(expect.end(), v.begin(), v.end());
  }
  EXPECT_EQ(walked, expect);
}

TEST(MessageArena, AdjacentOutOfLinePayloadsCoalesceIntoOneSpan) {
  // 16-byte-multiple out-of-line payloads pack back-to-back in a byte slab,
  // so a burst of same-sized large messages should walk as one span per
  // slab, not one iovec entry per message.
  MessageArena a;
  for (std::uint32_t i = 0; i < 40; ++i) append_pattern(a, 0, i, 64);
  std::vector<std::byte> pack;
  std::size_t spans = 0;
  std::size_t bytes = 0;
  a.for_each_payload_span(pack, [&](const std::byte*, std::size_t len) {
    ++spans;
    bytes += len;
  });
  EXPECT_EQ(bytes, a.payload_bytes());
  EXPECT_LE(spans, a.slab_count())
      << "contiguous payloads failed to coalesce";
  EXPECT_LT(spans, 40u);
}

TEST(MessageArena, InlinePayloadRunsPackIntoOneSpan) {
  // Inline payloads are interleaved with frame metadata, so the walk copies
  // each into the pack buffer: a run of them walks as one span of it, and
  // an out-of-line payload only splits the run.
  MessageArena a;
  for (std::uint32_t i = 0; i < 10; ++i) append_pattern(a, 0, i, 16);
  std::vector<std::byte> pack;
  std::vector<std::pair<const std::byte*, std::size_t>> spans;
  const auto walk = [&] {
    spans.clear();
    a.for_each_payload_span(pack, [&](const std::byte* p, std::size_t len) {
      spans.emplace_back(p, len);
    });
  };
  walk();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].first, pack.data());
  EXPECT_EQ(spans[0].second, 160u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(std::memcmp(pack.data() + 16 * i, pattern(16, i).data(), 16), 0)
        << "payload " << i;
  }
  append_pattern(a, 0, 10, 100);  // out-of-line
  append_pattern(a, 0, 11, 32);   // inline, at the threshold
  append_pattern(a, 0, 12, 1);
  walk();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].first, pack.data());
  EXPECT_EQ(spans[0].second, 160u);
  EXPECT_EQ(spans[1].second, 100u);
  EXPECT_EQ(spans[2].first, pack.data() + 160);
  EXPECT_EQ(spans[2].second, 33u);
}

TEST(MessageArena, EmptyArenaWalksNoSpans) {
  MessageArena a;
  a.append(0, 0, 0);
  std::vector<std::byte> pack;
  std::size_t spans = 0;
  a.for_each_payload_span(
      pack, [&](const std::byte*, std::size_t) { ++spans; });
  EXPECT_EQ(spans, 0u);
}

TEST(SlabPool, AcquireReleaseRoundTripsWithoutFreshAllocations) {
  SlabPool pool;
  MessageArena a(&pool);
  for (std::uint32_t i = 0; i < 2000; ++i) append_pattern(a, 0, i, 100);
  const std::uint64_t fresh_after_fill = pool.fresh_allocations();
  EXPECT_GT(fresh_after_fill, 0u);
  for (int cycle = 0; cycle < 5; ++cycle) {
    a.release_slabs();
    EXPECT_EQ(a.slab_count(), 0u);
    for (std::uint32_t i = 0; i < 2000; ++i) append_pattern(a, 0, i, 100);
    drain(a);
  }
  // Every later fill was served entirely from the free list.
  EXPECT_EQ(pool.fresh_allocations(), fresh_after_fill);
  EXPECT_GT(pool.reuses(), 0u);
}

TEST(SlabPool, ReleasedSlabsAreReusableByOtherArenas) {
  SlabPool pool;
  {
    MessageArena a(&pool);
    for (std::uint32_t i = 0; i < 1000; ++i) append_pattern(a, 0, i, 16);
  }  // destructor releases into the pool
  EXPECT_GT(pool.free_slabs(), 0u);
  const std::uint64_t fresh = pool.fresh_allocations();
  MessageArena b(&pool);
  for (std::uint32_t i = 0; i < 1000; ++i) append_pattern(b, 0, i, 16);
  EXPECT_EQ(pool.fresh_allocations(), fresh);
}

}  // namespace
}  // namespace gbsp
