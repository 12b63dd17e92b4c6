// Config validation: bad knob values must fail loudly at Runtime
// construction (std::invalid_argument), never surface as deadlocks or UB
// deep inside delivery. Also covers the --transport flag parsing helpers.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/runtime.hpp"
#include "core/transport.hpp"

namespace gbsp {
namespace {

Config valid_base() {
  Config cfg;
  cfg.nprocs = 2;
  return cfg;
}

TEST(ConfigValidation, AcceptsDefaults) {
  EXPECT_NO_THROW(validate_config(Config{}));
  EXPECT_NO_THROW(Runtime rt(valid_base()));
}

TEST(ConfigValidation, RejectsNonPositiveNprocs) {
  for (int n : {0, -1, -100}) {
    Config cfg = valid_base();
    cfg.nprocs = n;
    EXPECT_THROW(Runtime rt(cfg), std::invalid_argument) << n;
  }
}

TEST(ConfigValidation, RejectsZeroPacketUnit) {
  Config cfg = valid_base();
  cfg.packet_unit_bytes = 0;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
}

TEST(ConfigValidation, RejectsZeroEagerChunk) {
  // A zero chunk would never trigger a chunk-boundary flush.
  Config cfg = valid_base();
  cfg.delivery = DeliveryStrategy::Eager;
  cfg.eager_chunk_messages = 0;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
  // The knob is validated regardless of the selected transport: a config is
  // either valid or it is not.
  cfg.delivery = DeliveryStrategy::Deferred;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
}

TEST(ConfigValidation, RejectsOutOfRangeSocketTimeout) {
  Config cfg = valid_base();
  cfg.delivery = DeliveryStrategy::Socket;
  cfg.socket_stage_timeout_ms = 0;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
  cfg.socket_stage_timeout_ms = 3'600'001;  // > one hour
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
  cfg.socket_stage_timeout_ms = 3'600'000;
  EXPECT_NO_THROW(Runtime rt(cfg));
}

TEST(ConfigValidation, RejectsDegenerateSocketBackoff) {
  Config cfg = valid_base();
  cfg.delivery = DeliveryStrategy::Socket;
  cfg.socket_backoff_initial_ms = 0;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);

  cfg = valid_base();
  cfg.socket_backoff_initial_ms = 100;
  cfg.socket_backoff_max_ms = 50;  // initial > max
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);

  cfg = valid_base();
  cfg.socket_stage_timeout_ms = 100;
  cfg.socket_backoff_max_ms = 200;  // idle wait could overshoot the timeout
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
}

TEST(ConfigValidation, RejectsRunawaySocketSpinBudget) {
  Config cfg = valid_base();
  cfg.delivery = DeliveryStrategy::Socket;
  cfg.socket_spin_us = 1'000'001;  // > one second of spinning
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
  cfg.socket_spin_us = 1'000'000;
  EXPECT_NO_THROW(Runtime rt(cfg));
  cfg.socket_spin_us = 0;  // spinning disabled: straight to poll
  EXPECT_NO_THROW(Runtime rt(cfg));
}

TEST(ConfigValidation, RejectsZeroSocketFrameCap) {
  Config cfg = valid_base();
  cfg.delivery = DeliveryStrategy::Socket;
  cfg.socket_max_frame_bytes = 0;  // would reject every message
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
  cfg.socket_max_frame_bytes = 1;
  EXPECT_NO_THROW(Runtime rt(cfg));
}

TEST(ConfigValidation, ValidSocketKnobsConstructAndRun) {
  Config cfg = valid_base();
  cfg.delivery = DeliveryStrategy::Socket;
  cfg.socket_stage_timeout_ms = 5'000;
  cfg.socket_backoff_initial_ms = 2;
  cfg.socket_backoff_max_ms = 20;
  cfg.socket_spin_us = 10;
  cfg.socket_buffer_bytes = 1 << 16;
  Runtime rt(cfg);
  EXPECT_STREQ(rt.transport().name(), "socket");
  rt.run([](Worker& w) {
    w.send(1 - w.pid(), w.pid());
    w.sync();
    EXPECT_NE(w.get_message(), nullptr);
  });
}

TEST(ConfigValidation, RejectsOversizedPinnedSocketBuffer) {
  // A pinned kernel buffer smaller than the largest admissible frame is a
  // contradiction; and a request above INT_MAX would truncate in setsockopt.
  Config cfg = valid_base();
  cfg.delivery = DeliveryStrategy::Socket;
  cfg.socket_max_frame_bytes = 1 << 20;
  cfg.socket_buffer_bytes = (1 << 20) + 1;  // > max_frame
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
  cfg.socket_buffer_bytes = 1 << 20;  // == max_frame: fine
  EXPECT_NO_THROW(Runtime rt(cfg));
  cfg = valid_base();
  cfg.socket_buffer_bytes = std::size_t{1} << 40;  // > INT_MAX
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
}

TEST(ConfigValidation, RejectsOverflowableSocketFrameCap) {
  Config cfg = valid_base();
  cfg.socket_max_frame_bytes = (std::size_t{1} << 37) + 1;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
  cfg.socket_max_frame_bytes = std::size_t{1} << 37;
  EXPECT_NO_THROW(Runtime rt(cfg));
}

// --- Process-mode knob validation (the knobs bsp_launch's environment
// feeds). The Runtime must reject a bad rank topology at construction, long
// before the mesh bootstrap would hang trying to realise it. Config::rank
// serves both process-mode meshes, so its rows run once per mesh.

void expect_rank_outside_run_rejected(const Config& valid) {
  for (int r : {-1, valid.nprocs, 100}) {
    Config cfg = valid;
    cfg.rank = r;
    try {
      Runtime rt(cfg);
      ADD_FAILURE() << "rank " << r << " of " << valid.nprocs << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("rank must be in [0, nprocs)"),
                std::string::npos)
          << e.what();
    }
  }
}

Config valid_tcp() {
  Config cfg;
  cfg.nprocs = 4;
  cfg.delivery = DeliveryStrategy::Tcp;
  cfg.rank = 2;
  return cfg;
}

TEST(TcpConfigValidation, AcceptsValidRankConfig) {
  // Construction only selects the transport; the mesh bootstrap (which would
  // need live peers) happens at run(). So a valid config must construct.
  EXPECT_NO_THROW(Runtime rt(valid_tcp()));
}

TEST(TcpConfigValidation, RejectsSerializedScheduling) {
  Config cfg = valid_tcp();
  cfg.scheduling = Scheduling::Serialized;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
}

TEST(TcpConfigValidation, RejectsRankOutsideRun) {
  expect_rank_outside_run_rejected(valid_tcp());
}

TEST(TcpConfigValidation, RejectsMalformedHost) {
  for (const char* h : {"", "127.0.0.1:4710", "local host", "\t"}) {
    Config cfg = valid_tcp();
    cfg.tcp_host = h;
    EXPECT_THROW(Runtime rt(cfg), std::invalid_argument) << "\"" << h << "\"";
  }
}

TEST(TcpConfigValidation, RejectsPortOutsideRange) {
  for (int port : {0, -1, 65536}) {
    Config cfg = valid_tcp();
    cfg.tcp_port = port;
    EXPECT_THROW(Runtime rt(cfg), std::invalid_argument) << port;
  }
}

TEST(TcpConfigValidation, RejectsPortWindowPastMax) {
  // Rank r listens on tcp_port + r: the whole window must fit in 16 bits.
  Config cfg = valid_tcp();
  cfg.tcp_port = 65533;  // 4 ranks need 65533..65536
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
  cfg.tcp_port = 65532;  // 65532..65535: fine
  EXPECT_NO_THROW(Runtime rt(cfg));
}

TEST(TcpConfigValidation, RejectsOutOfRangeConnectTimeout) {
  Config cfg = valid_tcp();
  cfg.tcp_connect_timeout_ms = 0;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
  cfg.tcp_connect_timeout_ms = 3'600'001;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
}

TEST(TcpConfigValidation, KnobsIgnoredOffTcp) {
  // The tcp_* knobs (and the process-mode rank) gate only the tcp
  // transport; an unrelated delivery mode must not reject a config that
  // happens to carry stale values.
  Config cfg = valid_base();
  cfg.rank = -7;
  cfg.tcp_host = "not a host";
  cfg.tcp_port = 0;
  EXPECT_NO_THROW(Runtime rt(cfg));
}

// The shm_* knobs mirror the tcp_* discipline: reject degenerate geometry at
// Runtime construction, before the fd-passed bootstrap could build a broken
// segment mesh.

Config valid_shm() {
  Config cfg;
  cfg.nprocs = 4;
  cfg.delivery = DeliveryStrategy::Shm;
  cfg.rank = 2;
  cfg.shm_name = "cfgtest";
  return cfg;
}

TEST(ShmConfigValidation, AcceptsValidRankConfig) {
  EXPECT_NO_THROW(Runtime rt(valid_shm()));
}

TEST(ShmConfigValidation, RejectsSerializedScheduling) {
  Config cfg = valid_shm();
  cfg.scheduling = Scheduling::Serialized;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
}

TEST(ShmConfigValidation, RejectsRankOutsideRun) {
  expect_rank_outside_run_rejected(valid_shm());
}

TEST(ShmConfigValidation, RejectsMalformedSegmentName) {
  // The name seeds abstract-socket addresses and segment labels: no
  // whitespace, no '/', and short enough for sun_path once prefixed.
  const std::string too_long(65, 'x');
  for (const std::string& n :
       {std::string(""), std::string("two words"), std::string("a/b"),
        std::string("tab\there"), too_long}) {
    Config cfg = valid_shm();
    cfg.shm_name = n;
    EXPECT_THROW(Runtime rt(cfg), std::invalid_argument) << "\"" << n << "\"";
  }
}

TEST(ShmConfigValidation, RejectsRingGeometryOutsideBounds) {
  // A ring below one page can't hold a stage preamble plus a frame; past
  // 2^34 the paired segments stop fitting sensible memfd sizes.
  for (std::size_t bytes :
       {std::size_t{0}, std::size_t{4095}, (std::size_t{1} << 34) + 1}) {
    Config cfg = valid_shm();
    cfg.shm_ring_bytes = bytes;
    EXPECT_THROW(Runtime rt(cfg), std::invalid_argument) << bytes;
  }
}

TEST(ShmConfigValidation, RejectsSlabTooSmallForItsThreshold) {
  // Each zero-copy epoch is half the slab: a nonzero slab must hold at
  // least one threshold-sized payload per epoch half.
  Config cfg = valid_shm();
  cfg.shm_inline_threshold = 4096;
  cfg.shm_slab_bytes = 8191;  // < 2 * threshold
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
  cfg.shm_slab_bytes = 8192;
  EXPECT_NO_THROW(Runtime rt(cfg));
  cfg.shm_slab_bytes = 0;  // zero disables the slab entirely: fine
  EXPECT_NO_THROW(Runtime rt(cfg));
  cfg.shm_slab_bytes = (std::size_t{1} << 34) + 1;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
}

TEST(ShmConfigValidation, RejectsTinyInlineThreshold) {
  Config cfg = valid_shm();
  cfg.shm_inline_threshold = 63;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
  cfg.shm_inline_threshold = 64;
  EXPECT_NO_THROW(Runtime rt(cfg));
}

TEST(ShmConfigValidation, KnobsIgnoredOffShm) {
  // Like tcp_*, the shm_* knobs (and the process-mode rank) gate only the
  // shm transport; stale values must not poison an in-memory run.
  Config cfg = valid_base();
  cfg.rank = -7;
  cfg.shm_name = "not / a name";
  cfg.shm_ring_bytes = 1;
  cfg.shm_slab_bytes = 1;
  cfg.shm_inline_threshold = 0;
  EXPECT_NO_THROW(Runtime rt(cfg));
}

TEST(TransportNames, RoundTripThroughStrings) {
  for (auto d : {DeliveryStrategy::Deferred, DeliveryStrategy::Eager,
                 DeliveryStrategy::Socket, DeliveryStrategy::Tcp,
                 DeliveryStrategy::Shm}) {
    EXPECT_EQ(delivery_from_string(to_string(d)), d);
  }
  EXPECT_THROW((void)delivery_from_string(""), std::invalid_argument);
  EXPECT_THROW((void)delivery_from_string("Deferred"), std::invalid_argument);
  EXPECT_THROW((void)delivery_from_string("inet"), std::invalid_argument);
}

TEST(TransportNames, FactoryMatchesEnum) {
  SlabPool pool;
  for (auto d : {DeliveryStrategy::Deferred, DeliveryStrategy::Eager,
                 DeliveryStrategy::Socket, DeliveryStrategy::Tcp,
                 DeliveryStrategy::Shm}) {
    Config cfg;
    cfg.delivery = d;
    auto t = make_transport(cfg, pool, nullptr);
    EXPECT_STREQ(t->name(), to_string(d));
  }
}

}  // namespace
}  // namespace gbsp
