#include "fabp/net/wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <thread>

#include "fabp/bio/generate.hpp"
#include "fabp/core/engine.hpp"
#include "fabp/net/loadgen.hpp"
#include "fabp/net/server.hpp"
#include "fabp/util/rng.hpp"

namespace fabp::net {
namespace {

// --- pure protocol tests (no sockets) -----------------------------------

TEST(Wire, AlignRequestRoundTrip) {
  AlignRequest in;
  in.id = 0x0123456789abcdefULL;
  in.threshold = 42;
  in.deadline_ms = 1500;
  in.protein = "MFSRW";
  AlignRequest out;
  ASSERT_TRUE(decode(encode(in), out));
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.threshold, in.threshold);
  EXPECT_EQ(out.deadline_ms, in.deadline_ms);
  EXPECT_EQ(out.protein, in.protein);
  EXPECT_EQ(peek_type(encode(in)), MessageType::AlignRequest);
}

TEST(Wire, AlignResponseRoundTrip) {
  AlignResponse in;
  in.id = 7;
  in.status = static_cast<std::uint8_t>(core::ErrorCode::Timeout);
  in.retry_after_ms = 250;
  in.server_seconds = 0.125;
  in.error = "watchdog";
  in.hits = {{0, 3}, {1234567890123ULL, 48}};
  in.reverse_hits = {{17, 9}};
  AlignResponse out;
  ASSERT_TRUE(decode(encode(in), out));
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.status, in.status);
  EXPECT_EQ(out.retry_after_ms, in.retry_after_ms);
  EXPECT_EQ(out.server_seconds, in.server_seconds);
  EXPECT_EQ(out.error, in.error);
  EXPECT_EQ(out.hits, in.hits);
  EXPECT_EQ(out.reverse_hits, in.reverse_hits);
  EXPECT_FALSE(out.ok());
}

TEST(Wire, StatsRoundTrip) {
  EXPECT_EQ(peek_type(encode_stats_request()), MessageType::StatsRequest);
  StatsResponse in;
  in.text = "shard 0: healthy\nshard 1: degraded\n";
  StatsResponse out;
  ASSERT_TRUE(decode(encode(in), out));
  EXPECT_EQ(out.text, in.text);
}

TEST(Wire, RejectsTruncatedPayloads) {
  AlignResponse full;
  full.id = 9;
  full.hits = {{100, 5}};
  full.error = std::string(1, 'e');
  const std::string payload = encode(full);
  // Every strict prefix must fail soft, never crash or mis-parse.
  for (std::size_t n = 0; n < payload.size(); ++n) {
    AlignResponse out;
    EXPECT_FALSE(decode(std::string_view{payload.data(), n}, out)) << n;
  }
}

TEST(Wire, RejectsAlienTypeVersionAndTrailingGarbage) {
  AlignRequest request;
  request.protein = "MK";
  std::string payload = encode(request);

  AlignResponse wrong_type;
  EXPECT_FALSE(decode(payload, wrong_type));  // request bytes as response

  std::string bad_version = payload;
  bad_version[1] = static_cast<char>(kProtocolVersion + 1);
  AlignRequest out;
  EXPECT_FALSE(decode(bad_version, out));

  std::string trailing = payload + "x";
  EXPECT_FALSE(decode(trailing, out));

  // A lying hit count larger than the remaining bytes must be rejected
  // before any allocation.
  AlignResponse response;
  std::string resp = encode(response);
  resp[resp.size() - 8] = static_cast<char>(0xff);  // forward hit count
  AlignResponse decoded;
  EXPECT_FALSE(decode(resp, decoded));
}

TEST(Wire, RequestLimitIsTighterThanResponseLimit) {
  // Queries are tiny; hit lists are not.  A request payload above the
  // 1 MiB inbound bound is rejected even if perfectly well-formed, while
  // responses may legitimately carry megabytes of hits.
  ASSERT_LT(kMaxRequestFrameBytes, kMaxFrameBytes);
  AlignRequest big;
  big.protein.assign(kMaxRequestFrameBytes, 'M');
  AlignRequest out;
  EXPECT_FALSE(decode(encode(big), out));

  AlignResponse hits;
  hits.hits.assign(200'000, core::Hit{1, 2});  // ~2.4 MB payload
  AlignResponse round;
  ASSERT_TRUE(decode(encode(hits), round));
  EXPECT_EQ(round.hits.size(), 200'000u);
}

TEST(Wire, FrameAddsLengthPrefixAndCrcTrailer) {
  // v3 layout: u32 body length (payload + 4 CRC bytes), payload, CRC32.
  const std::string framed = frame("abc");
  ASSERT_EQ(framed.size(), 11u);
  EXPECT_EQ(framed[0], 7);  // 3 payload bytes + 4 CRC bytes
  EXPECT_EQ(framed[1], 0);
  EXPECT_EQ(framed[2], 0);
  EXPECT_EQ(framed[3], 0);
  EXPECT_EQ(framed.substr(4, 3), "abc");

  std::string_view payload;
  ASSERT_TRUE(verify_frame_body(std::string_view{framed}.substr(4), payload));
  EXPECT_EQ(payload, "abc");
}

// --- wire v3 pinned byte for byte ---------------------------------------
// The literals were written from the layout in wire.hpp (little-endian
// fields, u32-prefixed strings and hit lists) with the frame CRC computed
// by an independent CRC-32/ISO-HDLC implementation; any codec change that
// moves a byte fails here.

std::string from_hex(std::string_view hex) {
  std::string bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    bytes.push_back(static_cast<char>(
        std::stoi(std::string{hex.substr(i, 2)}, nullptr, 16)));
  return bytes;
}

AlignResponse golden_response() {
  AlignResponse m;
  m.id = 0x1122334455667788ULL;
  m.status = static_cast<std::uint8_t>(core::ErrorCode::QueueFull);
  m.retry_after_ms = 250;
  m.server_seconds = 0.125;
  m.generation = 0x100000007ULL;
  m.error = "queue full";
  m.hits = {{0x100000005ULL, 48}, {0x200000010ULL, 7}, {0xFFFFFFFFFFULL, 1}};
  m.reverse_hits = {{3, 20}, {0x123456789ULL, 0xDEADBEEFu}};
  return m;
}

TEST(Wire, GoldenAlignRequestFrame) {
  AlignRequest m;
  m.id = 0x0123456789abcdefULL;
  m.threshold = 42;
  m.deadline_ms = 1500;
  m.protein = "MKWVTF";
  m.database = "genome-v2";
  m.tenant = "acme";
  const std::string golden = from_hex(
      "350000000103efcdab89674523012a000000dc050000060000004d4b57565446"
      "0900000067656e6f6d652d76320400000061636d65713db783");
  ASSERT_EQ(golden.size(), 57u);
  EXPECT_EQ(frame(encode(m)), golden);

  std::string_view payload;
  ASSERT_TRUE(verify_frame_body(std::string_view{golden}.substr(4), payload));
  AlignRequest out;
  ASSERT_TRUE(decode(payload, out));
  EXPECT_EQ(out.id, m.id);
  EXPECT_EQ(out.threshold, m.threshold);
  EXPECT_EQ(out.deadline_ms, m.deadline_ms);
  EXPECT_EQ(out.protein, m.protein);
  EXPECT_EQ(out.database, m.database);
  EXPECT_EQ(out.tenant, m.tenant);
}

TEST(Wire, GoldenAlignResponseFrame) {
  const AlignResponse m = golden_response();
  const std::string golden = from_hex(
      "750000000203887766554433221108fa000000000000000000c03f0700000001"
      "0000000a00000071756575652066756c6c030000000500000001000000300000"
      "00100000000200000007000000ffffffffff0000000100000002000000030000"
      "0000000000140000008967452301000000efbeaddeecc87a1f");
  ASSERT_EQ(golden.size(), 121u);
  EXPECT_EQ(frame(encode(m)), golden);

  std::string_view payload;
  ASSERT_TRUE(verify_frame_body(std::string_view{golden}.substr(4), payload));
  AlignResponse out;
  ASSERT_TRUE(decode(payload, out));
  EXPECT_EQ(out.id, m.id);
  EXPECT_EQ(out.status, m.status);
  EXPECT_EQ(out.retry_after_ms, m.retry_after_ms);
  EXPECT_EQ(out.server_seconds, m.server_seconds);
  EXPECT_EQ(out.generation, m.generation);
  EXPECT_EQ(out.error, m.error);
  EXPECT_EQ(out.hits, m.hits);
  EXPECT_EQ(out.reverse_hits, m.reverse_hits);
}

TEST(Wire, AlignResponseFramedInPlaceMatchesGolden) {
  // The server's path: the payload encoded straight into an output buffer
  // that already holds earlier frames, behind its own length prefix.
  const std::string golden = frame(encode(golden_response()));
  std::string out = "earlier frames";
  ASSERT_TRUE(append_frame(out, golden_response()));
  EXPECT_EQ(out, "earlier frames" + golden);
  AlignResponse empty;
  empty.id = 9;
  out.clear();
  ASSERT_TRUE(append_frame(out, empty));
  EXPECT_EQ(out, frame(encode(empty)));
}

TEST(Wire, GoldenAlignResponseTruncationLeavesOutputUntouched) {
  const std::string payload = encode(golden_response());
  AlignResponse sentinel;
  sentinel.id = 77;
  sentinel.error = "untouched";
  sentinel.hits = {{1, 2}};
  sentinel.reverse_hits = {{3, 4}, {5, 6}};
  for (std::size_t n = 0; n < payload.size(); ++n) {
    AlignResponse out = sentinel;
    EXPECT_FALSE(decode(std::string_view{payload.data(), n}, out)) << n;
    EXPECT_EQ(out.id, sentinel.id) << n;
    EXPECT_EQ(out.error, sentinel.error) << n;
    EXPECT_EQ(out.hits, sentinel.hits) << n;
    EXPECT_EQ(out.reverse_hits, sentinel.reverse_hits) << n;
  }
}

TEST(Wire, VerifyFrameBodyCatchesEveryOneByteCorruption) {
  AlignRequest request;
  request.id = 5;
  request.protein = "MKWV";
  request.database = "db-a";
  request.tenant = "team-1";
  const std::string framed = frame(encode(request));
  const std::string_view body = std::string_view{framed}.substr(4);

  std::string_view payload;
  ASSERT_TRUE(verify_frame_body(body, payload));

  // Flip each body byte in turn: the CRC must catch every single-bit
  // corruption, whether it lands in the payload or the trailer itself.
  for (std::size_t i = 0; i < body.size(); ++i) {
    std::string corrupted{body};
    corrupted[i] = static_cast<char>(
        static_cast<std::uint8_t>(corrupted[i]) ^ 0x40u);
    std::string_view out;
    EXPECT_FALSE(verify_frame_body(corrupted, out)) << "byte " << i;
  }

  // A body too short to even carry the trailer fails soft.
  EXPECT_FALSE(verify_frame_body(std::string_view{"abc"}, payload));
}

TEST(Wire, AlignRequestCarriesDatabaseAndTenant) {
  AlignRequest in;
  in.id = 11;
  in.threshold = 9;
  in.protein = "MKW";
  in.database = "genome-v2";
  in.tenant = "acme";
  AlignRequest out;
  ASSERT_TRUE(decode(encode(in), out));
  EXPECT_EQ(out.database, "genome-v2");
  EXPECT_EQ(out.tenant, "acme");
}

TEST(Wire, AlignResponseCarriesGeneration) {
  AlignResponse in;
  in.id = 3;
  in.generation = 42;
  AlignResponse out;
  ASSERT_TRUE(decode(encode(in), out));
  EXPECT_EQ(out.generation, 42u);
}

TEST(Wire, SwapDatabaseRoundTrip) {
  SwapDatabaseRequest in;
  in.name = "genome-v2";
  in.path = "/data/ref.fa";
  in.bases = "ACGTACGT";
  EXPECT_EQ(peek_type(encode(in)), MessageType::SwapDatabaseRequest);
  SwapDatabaseRequest out;
  ASSERT_TRUE(decode(encode(in), out));
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.path, in.path);
  EXPECT_EQ(out.bases, in.bases);

  SwapDatabaseResponse resp_in;
  resp_in.status = static_cast<std::uint8_t>(core::ErrorCode::BadArgument);
  resp_in.generation = 7;
  resp_in.error = "no such file";
  SwapDatabaseResponse resp_out;
  ASSERT_TRUE(decode(encode(resp_in), resp_out));
  EXPECT_EQ(resp_out.status, resp_in.status);
  EXPECT_EQ(resp_out.generation, 7u);
  EXPECT_EQ(resp_out.error, resp_in.error);
  EXPECT_FALSE(resp_out.ok());
}

// --- end-to-end over localhost ------------------------------------------

Socket connect_local(std::uint16_t port) {
  Socket sock{::socket(AF_INET, SOCK_STREAM, 0)};
  EXPECT_TRUE(sock.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  return sock;
}

/// Engine + WireServer on port 0 with serve() on a background thread;
/// shuts down and joins on destruction.  Sharded (2 cards) so the TCP
/// path exercises the full scatter/gather router.
struct ServerFixture {
  ServerFixture() : engine{make_config()}, server{engine, {}, [] {
                      return std::string{"stats-body"};
                    }} {
    util::Xoshiro256 rng{321};
    engine.upload_reference(bio::random_dna(6000, rng));
    accept_thread = std::thread{[this] { server.serve(); }};
  }

  ~ServerFixture() {
    server.shutdown();
    accept_thread.join();
  }

  static core::EngineConfig make_config() {
    core::EngineConfig config;
    config.backend = core::BackendKind::HwSim;
    config.host.search_both_strands = true;
    config.shard.shard_count = 2;
    return config;
  }

  core::Engine engine;
  WireServer server;
  std::thread accept_thread;
};

TEST(Server, AlignOverLocalhostMatchesAlignSync) {
  ServerFixture fx;
  util::Xoshiro256 rng{99};
  const auto query = bio::random_protein(12, rng);
  const auto threshold =
      static_cast<std::uint32_t>(query.size() * 3 * 55 / 100);
  auto expected = fx.engine.align_sync(query, threshold);
  ASSERT_TRUE(expected.has_value());

  Socket conn = connect_local(fx.server.port());
  AlignRequest request;
  request.id = 77;
  request.threshold = threshold;
  request.protein = query.to_string();
  ASSERT_TRUE(write_frame(conn.fd(), encode(request)));

  std::string payload;
  ASSERT_TRUE(read_frame(conn.fd(), payload));
  AlignResponse response;
  ASSERT_TRUE(decode(payload, response));
  EXPECT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(response.id, 77u);
  EXPECT_EQ(response.hits, expected->hits);
  EXPECT_EQ(response.reverse_hits, expected->reverse_hits);
  EXPECT_GE(response.server_seconds, 0.0);
}

TEST(Server, BadProteinIsTypedErrorAndConnectionSurvives) {
  ServerFixture fx;
  Socket conn = connect_local(fx.server.port());

  AlignRequest bad;
  bad.id = 1;
  bad.threshold = 5;
  bad.protein = "NOT#APROTEIN!";
  ASSERT_TRUE(write_frame(conn.fd(), encode(bad)));
  std::string payload;
  ASSERT_TRUE(read_frame(conn.fd(), payload));
  AlignResponse response;
  ASSERT_TRUE(decode(payload, response));
  EXPECT_EQ(response.status,
            static_cast<std::uint8_t>(core::ErrorCode::BadArgument));
  EXPECT_FALSE(response.error.empty());
  EXPECT_TRUE(response.hits.empty());

  // The connection stays usable after a rejected request.
  AlignRequest good;
  good.id = 2;
  good.threshold = 30;
  good.protein = "MKWVTFISLL";
  ASSERT_TRUE(write_frame(conn.fd(), encode(good)));
  ASSERT_TRUE(read_frame(conn.fd(), payload));
  ASSERT_TRUE(decode(payload, response));
  EXPECT_TRUE(response.ok());
  EXPECT_EQ(response.id, 2u);
}

TEST(Server, StatsRequestReturnsFormatterText) {
  ServerFixture fx;
  Socket conn = connect_local(fx.server.port());
  ASSERT_TRUE(write_frame(conn.fd(), encode_stats_request()));
  std::string payload;
  ASSERT_TRUE(read_frame(conn.fd(), payload));
  StatsResponse stats;
  ASSERT_TRUE(decode(payload, stats));
  EXPECT_EQ(stats.text, "stats-body");
}

TEST(Server, LoadgenClosedLoopIsCleanAndCounted) {
  ServerFixture fx;
  LoadgenConfig config;
  config.port = fx.server.port();
  config.clients = 4;
  config.requests = 24;
  config.query_residues = 10;
  const LoadgenReport report = run_loadgen(config);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.sent, 24u);
  EXPECT_EQ(report.completed, 24u);
  EXPECT_GT(report.qps, 0.0);
  EXPECT_GE(report.p99_ms, report.p50_ms);

  const ServerMetrics metrics = fx.server.metrics();
  EXPECT_EQ(metrics.requests, 24u);
  EXPECT_EQ(metrics.errors, 0u);
  EXPECT_GE(metrics.p99_ms, metrics.p50_ms);
}

TEST(LatencyRing, WindowIsBoundedAndMaxIsExact) {
  // The server's latency store: p50/p99 over the most recent window, the
  // maximum over every request, and memory that does not grow with the
  // request count.
  core::detail::LatencyRing ring;
  for (int i = 0; i < 10'000; ++i)
    ring.record(i == 17 ? 950.0 : 1.0 + static_cast<double>(i % 7));
  const std::vector<double> window = ring.snapshot();
  EXPECT_EQ(window.size(), core::detail::LatencyRing::kCapacity);
  EXPECT_LE(window.size(), 1024u);
  EXPECT_LT(*std::max_element(window.begin(), window.end()), 950.0);
  EXPECT_EQ(ring.max_ms(), 950.0);
}

TEST(Server, ShutdownDrainsWithIdleConnectionOpen) {
  auto fx = std::make_unique<ServerFixture>();
  // An idle connected client parked in the server's recv must not block
  // the drain: shutdown interrupts the read and joins the handler.
  Socket idle = connect_local(fx->server.port());
  fx->server.shutdown();
  fx.reset();  // joins serve(); hangs here = drain bug
  SUCCEED();
}

/// This process's virtual size in KiB (VmSize in /proc/self/status).
std::size_t vm_size_kib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  return 0;
}

// Exited connection handlers are reaped as they go: a client that
// reconnects for every request (net::Client does on each retry) must not
// leave a thread stack mapped per connection until shutdown.
TEST(Server, ReconnectCyclesKeepVirtualSizeFlat) {
  ServerFixture fx;
  const auto cycle = [&fx] {
    Socket conn = connect_local(fx.server.port());
    AlignRequest request;
    request.id = 1;
    request.threshold = 20;
    request.protein = "MKWVTFISLL";
    ASSERT_TRUE(write_frame(conn.fd(), encode(request)));
    std::string payload;
    ASSERT_TRUE(read_frame(conn.fd(), payload));
  };
  for (int i = 0; i < 20; ++i) cycle();  // settle allocator arenas
  const std::size_t before = vm_size_kib();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 200; ++i) cycle();
  // An unjoined handler keeps its stack (8 MiB by default) mapped, so 200
  // leaked handlers would add ~1.6 GiB.  The bound leaves room for the
  // sanitizer allocators' quarantine (~100 MiB over this loop under asan).
  EXPECT_LT(vm_size_kib(), before + 384 * 1024);
}

TEST(Server, OversizedFramePrefixDropsConnection) {
  ServerFixture fx;
  Socket conn = connect_local(fx.server.port());
  // 0xffffffff length prefix: the server must reject without allocating
  // and close; the client read then fails instead of hanging.
  const char bogus[4] = {'\xff', '\xff', '\xff', '\xff'};
  ASSERT_EQ(::send(conn.fd(), bogus, sizeof bogus, 0), 4);
  std::string payload;
  EXPECT_FALSE(read_frame(conn.fd(), payload));
}

TEST(Server, CorruptedFrameGetsTypedIntegrityErrorAndConnectionSurvives) {
  ServerFixture fx;
  Socket conn = connect_local(fx.server.port());

  AlignRequest request;
  request.id = 31;
  request.threshold = 30;
  request.protein = "MKWVTFISLL";
  std::string framed = frame(encode(request));
  framed[6] ^= 0x20;  // flip one payload byte after the length prefix
  ASSERT_EQ(::send(conn.fd(), framed.data(), framed.size(), 0),
            static_cast<ssize_t>(framed.size()));

  std::string payload;
  ASSERT_EQ(read_frame_status(conn.fd(), payload), FrameRead::Ok);
  AlignResponse response;
  ASSERT_TRUE(decode(payload, response));
  EXPECT_EQ(response.status,
            static_cast<std::uint8_t>(core::ErrorCode::IntegrityFailure));

  // The framing held, so the stream is still synchronized: the same
  // connection serves the uncorrupted resend.
  ASSERT_TRUE(write_frame(conn.fd(), encode(request)));
  ASSERT_TRUE(read_frame(conn.fd(), payload));
  ASSERT_TRUE(decode(payload, response));
  EXPECT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(response.id, 31u);
  EXPECT_GT(response.generation, 0u);

  EXPECT_GE(fx.server.metrics().integrity, 1u);
}

TEST(Server, SwapDatabaseRoutesThroughHandler) {
  core::EngineConfig config = ServerFixture::make_config();
  core::Engine engine{config};
  util::Xoshiro256 rng{321};
  engine.upload_reference(bio::random_dna(6000, rng));
  WireServer server{
      engine, {}, {}, [&](const SwapDatabaseRequest& request) {
        SwapDatabaseResponse response;
        try {
          response.generation = engine.upload_database(
              request.name,
              bio::NucleotideSequence::parse(bio::SeqKind::Dna,
                                             request.bases));
        } catch (const std::exception& e) {
          response.status =
              static_cast<std::uint8_t>(core::ErrorCode::BadArgument);
          response.error = e.what();
        }
        return response;
      }};
  std::thread accept_thread{[&] { server.serve(); }};

  Socket conn = connect_local(server.port());
  SwapDatabaseRequest swap;
  swap.name = "fresh";
  swap.bases = "ACGTACGTACGTACGTACGTACGTACGTACGT";
  ASSERT_TRUE(write_frame(conn.fd(), encode(swap)));
  std::string payload;
  ASSERT_TRUE(read_frame(conn.fd(), payload));
  SwapDatabaseResponse response;
  ASSERT_TRUE(decode(payload, response));
  EXPECT_TRUE(response.ok()) << response.error;
  EXPECT_GT(response.generation, 0u);
  EXPECT_TRUE(engine.has_database("fresh"));
  EXPECT_GE(server.metrics().swaps, 1u);

  // An align routed at the new database over the same connection.
  AlignRequest request;
  request.id = 8;
  request.threshold = 1;
  request.protein = "MK";
  request.database = "fresh";
  ASSERT_TRUE(write_frame(conn.fd(), encode(request)));
  ASSERT_TRUE(read_frame(conn.fd(), payload));
  AlignResponse align_response;
  ASSERT_TRUE(decode(payload, align_response));
  EXPECT_TRUE(align_response.ok()) << align_response.error;
  EXPECT_EQ(align_response.generation, response.generation);

  // And an unknown name comes back as the typed routing error.
  request.id = 9;
  request.database = "no-such-db";
  ASSERT_TRUE(write_frame(conn.fd(), encode(request)));
  ASSERT_TRUE(read_frame(conn.fd(), payload));
  ASSERT_TRUE(decode(payload, align_response));
  EXPECT_EQ(align_response.status,
            static_cast<std::uint8_t>(core::ErrorCode::UnknownDatabase));

  conn.close();
  server.shutdown();
  accept_thread.join();
}

}  // namespace
}  // namespace fabp::net
