// Unit tests for the transport-agnostic pieces of src/net: endpoint spec
// parsing and the length-prefixed control-message codec — roundtrips, field
// bounds, and the hostile prefixes the connection loop must refuse
// (unknown types, oversized lengths, truncated payload structures).

#include <gtest/gtest.h>

#include <string>

#include "net/protocol.h"
#include "net/socket.h"
#include "stream/report_stream.h"
#include "util/hmac.h"
#include "util/status.h"

namespace ldp {
namespace {

TEST(NetProtocolTest, EndpointParseRoundTrips) {
  auto tcp = net::Endpoint::Parse("tcp:collector.example.org:7611");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp.value().kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.value().host, "collector.example.org");
  EXPECT_EQ(tcp.value().port, 7611);
  EXPECT_EQ(tcp.value().ToString(), "tcp:collector.example.org:7611");

  auto uds = net::Endpoint::Parse("unix:/var/run/ldp.sock");
  ASSERT_TRUE(uds.ok());
  EXPECT_EQ(uds.value().kind, net::Endpoint::Kind::kUnix);
  EXPECT_EQ(uds.value().path, "/var/run/ldp.sock");
  EXPECT_EQ(uds.value().ToString(), "unix:/var/run/ldp.sock");

  // IPv6 hosts contain colons and must be bracketed so the port is
  // unambiguous; ToString re-brackets for a clean round trip.
  auto v6 = net::Endpoint::Parse("tcp:[::1]:80");
  ASSERT_TRUE(v6.ok());
  EXPECT_EQ(v6.value().host, "::1");
  EXPECT_EQ(v6.value().port, 80);
  EXPECT_EQ(v6.value().ToString(), "tcp:[::1]:80");

  auto v6_full = net::Endpoint::Parse("tcp:[fe80::a:b]:7611");
  ASSERT_TRUE(v6_full.ok());
  EXPECT_EQ(v6_full.value().host, "fe80::a:b");
  EXPECT_EQ(v6_full.value().port, 7611);
}

TEST(NetProtocolTest, EndpointParseRejectsAmbiguousIpv6) {
  // Unbracketed multi-colon hosts are ambiguous — "tcp:::1:80" could be
  // host "::1" port 80 or host ":" port... — so they are refused outright
  // rather than guessed at.
  EXPECT_FALSE(net::Endpoint::Parse("tcp:::1:80").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:fe80::1:80").ok());
  // Malformed bracket forms.
  EXPECT_FALSE(net::Endpoint::Parse("tcp:[::1]80").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:[::1]:").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:[]:80").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:[::1:80").ok());
}

TEST(NetProtocolTest, EndpointParseRejectsMalformedSpecs) {
  EXPECT_FALSE(net::Endpoint::Parse("").ok());
  EXPECT_FALSE(net::Endpoint::Parse("http:host:1").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:hostonly").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:host:notaport").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:host:70000").ok());
  EXPECT_FALSE(net::Endpoint::Parse("unix:").ok());
}

TEST(NetProtocolTest, EndpointParsePortIsStrictlyDigits) {
  // strtoul-style parsing would tolerate all of these; the strict parser
  // refuses anything that is not 1-5 bare digits in range.
  EXPECT_FALSE(net::Endpoint::Parse("tcp:host:").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:host: 80").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:host:+80").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:host:-80").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:host:80 ").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:host:80x").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:host:0x50").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:host:008080").ok());  // 6 digits
  EXPECT_FALSE(net::Endpoint::Parse("tcp:host:65536").ok());
  EXPECT_FALSE(net::Endpoint::Parse("tcp:[::1]:+80").ok());

  // Boundary values that must still parse.
  auto max_port = net::Endpoint::Parse("tcp:host:65535");
  ASSERT_TRUE(max_port.ok());
  EXPECT_EQ(max_port.value().port, 65535);
  auto padded = net::Endpoint::Parse("tcp:host:00080");
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded.value().port, 80);
  // Port 0 parses (it is a valid *bind* spec: "pick a free port")...
  auto wildcard = net::Endpoint::Parse("tcp:host:0");
  ASSERT_TRUE(wildcard.ok());
  EXPECT_EQ(wildcard.value().port, 0);
  // ...but is refused as a *connect* target, where it can only be a
  // never-resolved endpoint.
  const auto refused = net::ConnectSocket(wildcard.value());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetProtocolTest, MessageHeaderRoundTripsAndBounds) {
  std::string wire;
  ASSERT_TRUE(
      net::AppendMessage(net::MessageType::kData, "abc", &wire).ok());
  ASSERT_EQ(wire.size(), net::kMessageHeaderBytes + 3);
  auto header =
      net::DecodeMessageHeader(wire.data(), net::kMessageHeaderBytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().type, net::MessageType::kData);
  EXPECT_EQ(header.value().payload_length, 3u);

  // Unknown type bytes, among them the retired DATA_ACK (0x15) and the
  // retired peer epoch advance, ADVANCE_EPOCH (0x04) / EPOCH_ADVANCED (0x12).
  for (const char type : {'\x7F', '\x15', '\x04', '\x12'}) {
    std::string bogus = wire.substr(0, net::kMessageHeaderBytes);
    bogus[0] = type;
    EXPECT_FALSE(
        net::DecodeMessageHeader(bogus.data(), bogus.size()).ok());
  }

  // A hostile length prefix above the bound must be rejected before any
  // buffering happens.
  std::string oversized = wire.substr(0, net::kMessageHeaderBytes);
  const uint32_t hostile = net::kMaxMessagePayload + 1;
  for (size_t i = 0; i < 4; ++i) {
    oversized[1 + i] = static_cast<char>(hostile >> (8 * i));
  }
  EXPECT_FALSE(
      net::DecodeMessageHeader(oversized.data(), oversized.size()).ok());

  // And AppendMessage refuses to produce one.
  std::string big(net::kMaxMessagePayload + 1, 'x');
  std::string out;
  EXPECT_FALSE(net::AppendMessage(net::MessageType::kData, big, &out).ok());
}

TEST(NetProtocolTest, HelloRoundTripsAndChecksVersion) {
  stream::StreamHeader header;
  header.epsilon = 4.0;
  header.dimension = 3;
  header.k = 1;
  header.schema_hash = 0xDEADBEEFCAFEF00DULL;

  // An anonymous HELLO is a v3 HELLO with reporter-id length 0 and no tag.
  net::HelloMessage hello;
  hello.ordinal = 17;
  hello.header_bytes = stream::EncodeStreamHeader(header);
  const std::string wire = net::EncodeHello(hello);
  constexpr size_t kFixed = 2 + 4 + 4 + 8;  // version, channel, flags, ordinal
  ASSERT_EQ(wire.size(), kFixed + 2 + hello.header_bytes.size());
  auto decoded = net::DecodeHello(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().version, net::kProtocolVersion);
  EXPECT_EQ(decoded.value().ordinal, 17u);
  EXPECT_EQ(decoded.value().header_bytes, hello.header_bytes);
  EXPECT_TRUE(decoded.value().reporter_id.empty());
  EXPECT_TRUE(decoded.value().auth_tag.empty());

  // The retired v2 layout (no id-length field) and a future version are
  // both refused, not guessed at.
  std::string v2 = wire.substr(0, kFixed) + hello.header_bytes;
  v2[0] = '\x02';
  EXPECT_FALSE(net::DecodeHello(v2).ok());
  std::string future = wire;
  future[0] = '\x63';
  EXPECT_FALSE(net::DecodeHello(future).ok());

  // Truncated fixed fields.
  EXPECT_FALSE(net::DecodeHello(wire.substr(0, 5)).ok());
}

TEST(NetProtocolTest, AuthenticatedHelloRoundTripsV3) {
  stream::StreamHeader header;
  header.epsilon = 4.0;
  header.dimension = 3;
  header.k = 1;
  header.schema_hash = 7;

  net::HelloMessage hello;
  hello.channel = 5;
  hello.ordinal = 2;
  hello.reporter_id = "user-42";
  hello.header_bytes = stream::EncodeStreamHeader(header);
  hello.auth_tag = net::ComputeHelloTag("campaign-secret", hello.reporter_id,
                                        hello.channel, /*epoch=*/1,
                                        hello.header_bytes);
  ASSERT_EQ(hello.auth_tag.size(), net::kHelloAuthTagBytes);

  auto decoded = net::DecodeHello(net::EncodeHello(hello));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().version, net::kProtocolVersion);
  EXPECT_EQ(decoded.value().channel, 5u);
  EXPECT_EQ(decoded.value().ordinal, 2u);
  EXPECT_EQ(decoded.value().reporter_id, "user-42");
  EXPECT_EQ(decoded.value().auth_tag, hello.auth_tag);
  EXPECT_EQ(decoded.value().header_bytes, hello.header_bytes);
}

TEST(NetProtocolTest, HelloRefusesHostileIdentityForms) {
  net::HelloMessage hello;
  hello.reporter_id = "user-42";
  hello.auth_tag.assign(net::kHelloAuthTagBytes, '\x5A');
  hello.header_bytes = "hdr";
  const std::string wire = net::EncodeHello(hello);

  // Truncations anywhere inside the identity section: mid id-length field,
  // mid id, mid tag.
  constexpr size_t kFixed = 2 + 4 + 4 + 8;  // version, channel, flags, ordinal
  EXPECT_FALSE(net::DecodeHello(wire.substr(0, kFixed + 1)).ok());
  EXPECT_FALSE(net::DecodeHello(wire.substr(0, kFixed + 2 + 3)).ok());
  EXPECT_FALSE(
      net::DecodeHello(
          wire.substr(0, kFixed + 2 + hello.reporter_id.size() + 10))
          .ok());

  // A zero-length reporter id means an anonymous HELLO: no tag follows, so
  // the id and tag bytes decode as the start of the stream header (which
  // the server's header check then refuses).
  std::string empty_id = wire;
  empty_id[kFixed] = 0;
  empty_id[kFixed + 1] = 0;
  auto anonymous = net::DecodeHello(empty_id);
  ASSERT_TRUE(anonymous.ok());
  EXPECT_TRUE(anonymous.value().reporter_id.empty());
  EXPECT_TRUE(anonymous.value().auth_tag.empty());
  EXPECT_EQ(anonymous.value().header_bytes, empty_id.substr(kFixed + 2));

  // An id length above the protocol bound is refused before any allocation
  // could happen, even when the payload is long enough to back it.
  std::string oversized = wire;
  const uint16_t lying = net::kMaxReporterIdBytes + 1;
  oversized[kFixed] = static_cast<char>(lying & 0xFF);
  oversized[kFixed + 1] = static_cast<char>(lying >> 8);
  oversized.append(512, 'x');
  EXPECT_FALSE(net::DecodeHello(oversized).ok());

  // The longest legal id still round-trips.
  net::HelloMessage max_id;
  max_id.reporter_id.assign(net::kMaxReporterIdBytes, 'r');
  max_id.auth_tag.assign(net::kHelloAuthTagBytes, '\x01');
  max_id.header_bytes = "hdr";
  auto decoded = net::DecodeHello(net::EncodeHello(max_id));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().reporter_id, max_id.reporter_id);
}

TEST(NetProtocolTest, HelloTagBindsEveryField) {
  // The HMAC tag must change when any bound field changes — otherwise a
  // captured tag could be replayed onto another channel, epoch, identity,
  // or stream header, or verified under a different campaign key.
  const std::string base =
      net::ComputeHelloTag("key", "user-1", /*channel=*/0, /*epoch=*/0, "hdr");
  EXPECT_EQ(base.size(), net::kHelloAuthTagBytes);
  // Deterministic: same inputs, same tag.
  EXPECT_EQ(base,
            net::ComputeHelloTag("key", "user-1", 0, 0, "hdr"));
  EXPECT_NE(base, net::ComputeHelloTag("KEY", "user-1", 0, 0, "hdr"));
  EXPECT_NE(base, net::ComputeHelloTag("key", "user-2", 0, 0, "hdr"));
  EXPECT_NE(base, net::ComputeHelloTag("key", "user-1", 1, 0, "hdr"));
  EXPECT_NE(base, net::ComputeHelloTag("key", "user-1", 0, 1, "hdr"));
  EXPECT_NE(base, net::ComputeHelloTag("key", "user-1", 0, 0, "hdr2"));
  // Length-delimited canonicalization: shifting bytes between the id and
  // the header must not collide.
  EXPECT_NE(net::ComputeHelloTag("key", "ab", 0, 0, "c"),
            net::ComputeHelloTag("key", "a", 0, 0, "bc"));
}

TEST(NetProtocolTest, RepliesRoundTrip) {
  net::HelloOkMessage ok;
  ok.shard = 42;
  ok.epoch = 3;
  ok.resume_offset = 0xABCDEF0123ULL;
  auto ok_decoded = net::DecodeHelloOk(net::EncodeHelloOk(ok));
  ASSERT_TRUE(ok_decoded.ok());
  EXPECT_EQ(ok_decoded.value().shard, 42u);
  EXPECT_EQ(ok_decoded.value().epoch, 3u);
  EXPECT_EQ(ok_decoded.value().resume_offset, 0xABCDEF0123ULL);
  EXPECT_FALSE(net::DecodeHelloOk("short").ok());
  EXPECT_FALSE(
      net::DecodeHelloOk(net::EncodeHelloOk(ok) + "junk").ok());

  net::ShardClosedMessage closed;
  closed.code = static_cast<uint8_t>(StatusCode::kFailedPrecondition);
  closed.stats.bytes = 1234;
  closed.stats.frames = 50;
  closed.stats.accepted = 48;
  closed.stats.rejected = 2;
  closed.message = "stream ended inside a frame";
  auto closed_decoded =
      net::DecodeShardClosed(net::EncodeShardClosed(closed));
  ASSERT_TRUE(closed_decoded.ok());
  EXPECT_EQ(closed_decoded.value().code, closed.code);
  EXPECT_EQ(closed_decoded.value().stats.bytes, 1234u);
  EXPECT_EQ(closed_decoded.value().stats.frames, 50u);
  EXPECT_EQ(closed_decoded.value().stats.accepted, 48u);
  EXPECT_EQ(closed_decoded.value().stats.rejected, 2u);
  EXPECT_EQ(closed_decoded.value().message, closed.message);
}

TEST(NetProtocolTest, MultiplexingFieldsRoundTrip) {
  // HELLO carries the channel id that multiplexes many shards over one
  // connection.
  net::HelloMessage hello;
  hello.channel = 0xC0FFEE;
  hello.ordinal = 9;
  hello.header_bytes = "hdr";
  auto hello_decoded = net::DecodeHello(net::EncodeHello(hello));
  ASSERT_TRUE(hello_decoded.ok());
  EXPECT_EQ(hello_decoded.value().channel, 0xC0FFEEu);
  EXPECT_EQ(hello_decoded.value().ordinal, 9u);

  // HELLO_OK and SHARD_CLOSED echo the channel so replies can be matched
  // out of order.
  net::HelloOkMessage ok;
  ok.channel = 0xC0FFEE;
  ok.shard = 5;
  auto ok_decoded = net::DecodeHelloOk(net::EncodeHelloOk(ok));
  ASSERT_TRUE(ok_decoded.ok());
  EXPECT_EQ(ok_decoded.value().channel, 0xC0FFEEu);

  net::ShardClosedMessage closed;
  closed.channel = 3;
  closed.code = 0;
  auto closed_decoded = net::DecodeShardClosed(net::EncodeShardClosed(closed));
  ASSERT_TRUE(closed_decoded.ok());
  EXPECT_EQ(closed_decoded.value().channel, 3u);

  net::CloseShardMessage close;
  close.channel = 7;
  auto close_decoded = net::DecodeCloseShard(net::EncodeCloseShard(close));
  ASSERT_TRUE(close_decoded.ok());
  EXPECT_EQ(close_decoded.value().channel, 7u);
  EXPECT_FALSE(net::DecodeCloseShard("abc").ok());  // truncated
  EXPECT_FALSE(
      net::DecodeCloseShard(net::EncodeCloseShard(close) + "x").ok());
}

TEST(NetProtocolTest, HelloFlagsAcceptOnlyTheFreshBit) {
  net::HelloMessage hello;
  hello.header_bytes = "hdr";
  const std::string wire = net::EncodeHello(hello);
  constexpr size_t kFlags = 2 + 4;  // after u16 version, u32 channel
  EXPECT_EQ(wire.substr(kFlags, 4), std::string(4, '\0'));
  auto plain = net::DecodeHello(wire);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value().fresh);

  // The fresh bit encodes as kHelloFlagFresh and decodes back.
  net::HelloMessage fresh = hello;
  fresh.fresh = true;
  const std::string fresh_wire = net::EncodeHello(fresh);
  std::string expected_flags;
  for (int i = 0; i < 4; ++i) {
    expected_flags.push_back(
        static_cast<char>((net::kHelloFlagFresh >> (8 * i)) & 0xFF));
  }
  EXPECT_EQ(fresh_wire.substr(kFlags, 4), expected_flags);
  auto fresh_decoded = net::DecodeHello(fresh_wire);
  ASSERT_TRUE(fresh_decoded.ok());
  EXPECT_TRUE(fresh_decoded.value().fresh);
  EXPECT_EQ(fresh_decoded.value().header_bytes, "hdr");

  // Every other bit is refused, alone or next to the fresh bit.
  for (size_t bit = 0; bit < 32; ++bit) {
    if ((1u << bit) == net::kHelloFlagFresh) continue;
    for (const std::string* base : {&wire, &fresh_wire}) {
      std::string flagged = *base;
      flagged[kFlags + bit / 8] = static_cast<char>(
          flagged[kFlags + bit / 8] | static_cast<char>(1u << (bit % 8)));
      auto decoded = net::DecodeHello(flagged);
      ASSERT_FALSE(decoded.ok()) << "bit " << bit;
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(NetProtocolTest, HelloTagBindsTheFreshFlag) {
  // A fresh HELLO signs under its own label: flipping the flag in flight
  // breaks the tag, and the flags-0 tag is the one it always was.
  const std::string plain =
      net::ComputeHelloTag("key", "user-1", /*channel=*/0, /*epoch=*/0, "hdr");
  EXPECT_EQ(plain, net::ComputeHelloTag("key", "user-1", 0, 0, "hdr",
                                        /*fresh=*/false));
  const std::string fresh =
      net::ComputeHelloTag("key", "user-1", 0, 0, "hdr", /*fresh=*/true);
  EXPECT_EQ(fresh.size(), net::kHelloAuthTagBytes);
  EXPECT_NE(fresh, plain);
  // Both tags, rebuilt from the canonical encoding by hand: the label,
  // then u16 id length, id, u32 channel, u32 epoch, u32 header length,
  // header (little-endian).
  auto canonical = [](const std::string& label) {
    std::string out = label;
    out.append("\x06\x00user-1", 8);
    out.append(std::string(8, '\0'));  // channel 0, epoch 0
    out.append("\x03\x00\x00\x00hdr", 7);
    return out;
  };
  EXPECT_EQ(plain, util::HmacSha256(
                       "key", canonical(std::string("ldp-hello-v3\0", 13))));
  EXPECT_EQ(fresh,
            util::HmacSha256("key", canonical(std::string(
                                        "ldp-hello-v3-fresh\0", 19))));
}

TEST(NetProtocolTest, SnapshotRoundTripsAndRefusesHostileForms) {
  net::SnapshotMessage snap;
  snap.node = 7;
  snap.seq = 19;
  snap.epoch = 2;
  snap.snapshot_bytes = "LDPE-pretend-session-bytes";
  const std::string wire = net::EncodeSnapshot(snap);
  auto decoded = net::DecodeSnapshot(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().version, net::kProtocolVersion);
  EXPECT_EQ(decoded.value().node, 7u);
  EXPECT_EQ(decoded.value().seq, 19u);
  EXPECT_EQ(decoded.value().epoch, 2u);
  EXPECT_EQ(decoded.value().snapshot_bytes, snap.snapshot_bytes);

  // The retired v2 version and a future version are refused, not guessed
  // at.
  std::string v2 = wire;
  v2[0] = '\x02';
  EXPECT_FALSE(net::DecodeSnapshot(v2).ok());
  std::string future = wire;
  future[0] = '\x63';
  EXPECT_FALSE(net::DecodeSnapshot(future).ok());

  // Truncated fixed fields, truncated length-prefixed body, and trailing
  // garbage after the body are all framing violations.
  EXPECT_FALSE(net::DecodeSnapshot(wire.substr(0, 9)).ok());
  EXPECT_FALSE(net::DecodeSnapshot(wire.substr(0, wire.size() - 1)).ok());
  EXPECT_FALSE(net::DecodeSnapshot(wire + "x").ok());

  // A snapshot length prefix claiming more bytes than the payload holds.
  net::SnapshotMessage empty = snap;
  empty.snapshot_bytes.clear();
  std::string lying = net::EncodeSnapshot(empty);
  lying[lying.size() - 4] = '\x40';  // body length 0 -> 64, no body follows
  EXPECT_FALSE(net::DecodeSnapshot(lying).ok());

  net::SnapshotOkMessage ack;
  ack.node = 7;
  ack.seq = 19;
  auto ack_decoded = net::DecodeSnapshotOk(net::EncodeSnapshotOk(ack));
  ASSERT_TRUE(ack_decoded.ok());
  EXPECT_EQ(ack_decoded.value().node, 7u);
  EXPECT_EQ(ack_decoded.value().seq, 19u);
  EXPECT_FALSE(net::DecodeSnapshotOk("short").ok());
  EXPECT_FALSE(
      net::DecodeSnapshotOk(net::EncodeSnapshotOk(ack) + "!").ok());
}

TEST(NetProtocolTest, ErrorsCarryStatusAcrossTheWire) {
  const Status refusal = Status::FailedPrecondition(
      "stream schema hash does not match the collector's protocol");
  auto decoded = net::DecodeErrorMessage(net::EncodeError(refusal));
  ASSERT_TRUE(decoded.ok());
  const Status rebuilt =
      net::StatusFromWire(decoded.value().code, decoded.value().message);
  EXPECT_EQ(rebuilt.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(rebuilt.message(), refusal.message());

  // Unknown status codes from a hostile peer collapse to kInternal.
  EXPECT_EQ(net::StatusFromWire(250, "x").code(), StatusCode::kInternal);
  EXPECT_TRUE(net::StatusFromWire(0, "").ok());

  // Code 0 is OK, so an ERROR carrying it would read as success: the
  // decoder refuses it.
  auto zero = net::DecodeErrorMessage(std::string("\0all good", 9));
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(net::DecodeErrorMessage(std::string(1, '\0')).ok());
}

TEST(NetProtocolTest, HeaderCompatibilityNamesTheFirstMismatch) {
  stream::StreamHeader expected;
  expected.mechanism = MechanismKind::kHybrid;
  expected.oracle = FrequencyOracleKind::kOue;
  expected.epsilon = 4.0;
  expected.dimension = 3;
  expected.k = 1;
  expected.schema_hash = 99;

  EXPECT_TRUE(stream::CheckHeadersCompatible(expected, expected).ok());

  stream::StreamHeader wrong = expected;
  wrong.schema_hash = 100;
  const Status hash = stream::CheckHeadersCompatible(expected, wrong);
  EXPECT_EQ(hash.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(hash.message().find("schema hash"), std::string::npos);

  wrong = expected;
  wrong.epsilon = 5.0;
  EXPECT_NE(stream::CheckHeadersCompatible(expected, wrong)
                .message()
                .find("epsilon"),
            std::string::npos);

  wrong = expected;
  wrong.oracle = FrequencyOracleKind::kGrr;
  EXPECT_FALSE(stream::CheckHeadersCompatible(expected, wrong).ok());

  wrong = expected;
  wrong.k = 2;
  EXPECT_FALSE(stream::CheckHeadersCompatible(expected, wrong).ok());
}

}  // namespace
}  // namespace ldp
