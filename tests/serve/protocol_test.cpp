// Wire-protocol framing tests: round trips, truncated/oversized/mismatched
// frames, incremental reassembly, and a deterministic mutation fuzz.  All
// pure byte-level — no sockets — which is the point of the explicit
// little-endian encode/decode layer.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>

namespace sss::serve {
namespace {

const unsigned char* bytes_of(const std::string& s) {
  return reinterpret_cast<const unsigned char*>(s.data());
}

// `bytes` little-endian bytes of `v`, for hand-built (often invalid) frames.
std::string le(std::uint64_t v, int bytes) {
  std::string out;
  for (int i = 0; i < bytes; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  return out;
}

DecideRequest sample_request() {
  DecideRequest request;
  request.facility = "aps";
  request.transfer_size_bytes = 2'000'000'000;
  request.operating_utilization = 0.64;
  request.path_hops = 3;
  return request;
}

TEST(ProtocolTest, DecideRequestRoundTrips) {
  std::string wire;
  append_decide_request(wire, sample_request());
  ASSERT_EQ(wire.size(), kHeaderSize + kDecideRequestSize);

  const MessageHeader header = decode_header(bytes_of(wire));
  EXPECT_EQ(header.magic, kMagic);
  EXPECT_EQ(header.version, kProtocolVersion);
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(MessageType::kDecideRequest));
  EXPECT_EQ(header.payload_length, kDecideRequestSize);

  const auto decoded =
      decode_decide_request(bytes_of(wire) + kHeaderSize, kDecideRequestSize);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->facility, "aps");
  EXPECT_EQ(decoded->transfer_size_bytes, 2'000'000'000u);
  EXPECT_DOUBLE_EQ(decoded->operating_utilization, 0.64);
  EXPECT_EQ(decoded->path_hops, 3u);
}

TEST(ProtocolTest, DecideResponseRoundTrips) {
  DecideResponse response;
  response.status = 0;
  response.decision = WireDecision::kStream;
  response.t_stream_s = 0.125;
  response.t_stage_s = 0.25;
  response.t_local_s = 1.5;
  response.t_worst_transfer_s = 0.8;
  response.sss = 3.62;
  response.profile_generation = 7;
  response.operating_utilization = 0.64;
  response.path_hops = 3;
  response.flags = kFlagUtilizationClamped;

  std::string wire;
  append_decide_response(wire, response);
  ASSERT_EQ(wire.size(), kHeaderSize + kDecideResponseSize);

  const auto decoded =
      decode_decide_response(bytes_of(wire) + kHeaderSize, kDecideResponseSize);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->decision, WireDecision::kStream);
  EXPECT_DOUBLE_EQ(decoded->t_stream_s, 0.125);
  EXPECT_DOUBLE_EQ(decoded->t_stage_s, 0.25);
  EXPECT_DOUBLE_EQ(decoded->t_local_s, 1.5);
  EXPECT_DOUBLE_EQ(decoded->t_worst_transfer_s, 0.8);
  EXPECT_DOUBLE_EQ(decoded->sss, 3.62);
  EXPECT_EQ(decoded->profile_generation, 7u);
  EXPECT_EQ(decoded->path_hops, 3u);
  EXPECT_EQ(decoded->flags, kFlagUtilizationClamped);
}

TEST(ProtocolTest, ErrorResponseRoundTrips) {
  std::string wire;
  append_error_response(wire, ErrorCode::kUnknownFacility, "no such facility 'x'");
  const MessageHeader header = decode_header(bytes_of(wire));
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(MessageType::kErrorResponse));
  const auto decoded =
      decode_error_response(bytes_of(wire) + kHeaderSize, header.payload_length);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->code, ErrorCode::kUnknownFacility);
  EXPECT_EQ(decoded->message, "no such facility 'x'");
}

TEST(ProtocolTest, FacilityNameAtMaxLengthRoundTrips) {
  DecideRequest request = sample_request();
  request.facility = std::string(kFacilityNameSize - 1, 'f');
  std::string wire;
  append_decide_request(wire, request);
  const auto decoded =
      decode_decide_request(bytes_of(wire) + kHeaderSize, kDecideRequestSize);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->facility, request.facility);
}

TEST(ProtocolTest, RejectsWrongPayloadSize) {
  std::string wire;
  append_decide_request(wire, sample_request());
  EXPECT_FALSE(
      decode_decide_request(bytes_of(wire) + kHeaderSize, kDecideRequestSize - 1));
  EXPECT_FALSE(decode_decide_response(bytes_of(wire) + kHeaderSize, 8));
}

TEST(ProtocolTest, RejectsBytesAfterFacilityTerminator) {
  std::string wire;
  append_decide_request(wire, sample_request());
  // "aps\0" then garbage inside the fixed-width name field: the decoder
  // must reject, not silently truncate (a corrupted name is not a request
  // for a different facility).
  wire[kHeaderSize + 5] = 'X';
  EXPECT_FALSE(
      decode_decide_request(bytes_of(wire) + kHeaderSize, kDecideRequestSize));
}

TEST(ProtocolTest, RejectsMissingFacilityTerminator) {
  std::string wire;
  append_decide_request(wire, sample_request());
  for (std::size_t i = 0; i < kFacilityNameSize; ++i) wire[kHeaderSize + i] = 'a';
  EXPECT_FALSE(
      decode_decide_request(bytes_of(wire) + kHeaderSize, kDecideRequestSize));
}

TEST(ProtocolTest, RejectsNonzeroReservedField) {
  std::string wire;
  append_decide_request(wire, sample_request());
  wire[wire.size() - 1] = 1;  // last u32 is the reserved field
  EXPECT_FALSE(
      decode_decide_request(bytes_of(wire) + kHeaderSize, kDecideRequestSize));
}

TEST(FrameReaderTest, ReassemblesByteAtATime) {
  std::string wire;
  append_decide_request(wire, sample_request());
  append_stats_request(wire);

  FrameReader reader;
  int frames = 0;
  for (const char byte : wire) {
    reader.feed(&byte, 1);
    while (const auto frame = reader.next()) {
      ++frames;
      if (frames == 1) {
        EXPECT_EQ(frame->header.type,
                  static_cast<std::uint16_t>(MessageType::kDecideRequest));
        EXPECT_TRUE(decode_decide_request(frame->payload, frame->payload_size));
      } else {
        EXPECT_EQ(frame->header.type,
                  static_cast<std::uint16_t>(MessageType::kStatsRequest));
        EXPECT_EQ(frame->payload_size, 0u);
      }
    }
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(reader.error(), ErrorCode::kNone);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, TruncatedHeaderYieldsNoFrame) {
  std::string wire;
  append_decide_request(wire, sample_request());
  FrameReader reader;
  reader.feed(wire.data(), kHeaderSize - 1);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), ErrorCode::kNone);  // need more bytes, not an error
  // The remaining bytes complete the frame.
  reader.feed(wire.data() + kHeaderSize - 1, wire.size() - (kHeaderSize - 1));
  EXPECT_TRUE(reader.next().has_value());
}

TEST(FrameReaderTest, TruncatedPayloadYieldsNoFrame) {
  std::string wire;
  append_decide_request(wire, sample_request());
  FrameReader reader;
  reader.feed(wire.data(), wire.size() - 1);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), ErrorCode::kNone);
}

TEST(FrameReaderTest, OversizedLengthLatchesBadLength) {
  const std::string wire =
      le(kMagic, 4) + le(kProtocolVersion, 2) +
      le(static_cast<std::uint16_t>(MessageType::kDecideRequest), 2) +
      le(kMaxPayloadLength + 1, 4);

  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), ErrorCode::kBadLength);
  // Latched: even a subsequent valid frame is never parsed.
  std::string valid;
  append_stats_request(valid);
  reader.feed(valid.data(), valid.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), ErrorCode::kBadLength);
}

TEST(FrameReaderTest, BadMagicLatchesBadMagic) {
  std::string wire;
  append_stats_request(wire);
  wire[0] = 'X';
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), ErrorCode::kBadMagic);
}

TEST(FrameReaderTest, VersionMismatchIsReadableNotLatched) {
  // The server must be able to READ a version-mismatched frame to answer it
  // with a clean kUnsupportedVersion error, so the reader yields it.
  const std::string wire =
      le(kMagic, 4) + le(kProtocolVersion + 1, 2) +
      le(static_cast<std::uint16_t>(MessageType::kStatsRequest), 2) + le(0, 4);

  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.version, kProtocolVersion + 1);
  EXPECT_EQ(reader.error(), ErrorCode::kNone);
}

// Deterministic mutation fuzz: corrupt one byte of a valid two-frame stream
// at every position with several values.  The reader must never crash, never
// mis-frame (a yielded frame is either byte-identical to an original frame
// or the stream latched an error at/after the corrupt byte), and decoding a
// corrupted payload must fail cleanly rather than fabricate fields.
TEST(FrameReaderTest, SingleByteMutationsNeverCrashOrMisframe) {
  std::string wire;
  append_decide_request(wire, sample_request());
  append_stats_request(wire);

  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    for (const unsigned char value : {0x00, 0xFF, 0x01, 0x80}) {
      std::string mutated = wire;
      if (static_cast<unsigned char>(mutated[pos]) == value) continue;
      mutated[pos] = static_cast<char>(value);

      FrameReader reader;
      reader.feed(mutated.data(), mutated.size());
      int frames = 0;
      while (const auto frame = reader.next()) {
        ++frames;
        ASSERT_LE(frames, 2) << "mutation at " << pos << " produced extra frames";
        // Whatever the reader yields must be structurally sound.
        EXPECT_LE(frame->payload_size, kMaxPayloadLength);
        if (frame->header.type ==
                static_cast<std::uint16_t>(MessageType::kDecideRequest) &&
            frame->payload_size == kDecideRequestSize) {
          (void)decode_decide_request(frame->payload, frame->payload_size);
        }
      }
      if (reader.error() != ErrorCode::kNone) {
        EXPECT_TRUE(reader.error() == ErrorCode::kBadMagic ||
                    reader.error() == ErrorCode::kBadLength)
            << "mutation at " << pos;
      }
    }
  }
}

TEST(ProtocolTest, NonFiniteUtilizationBytesDecodeTransparently) {
  // The wire layer transports IEEE-754 bit patterns verbatim: a NaN or Inf
  // utilization is NOT a framing error (the frame is well-formed), it is a
  // request-level error for decide() to reject.  The decode must surface
  // the hostile value instead of silently normalizing it.
  for (const double hostile : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
    DecideRequest request = sample_request();
    request.operating_utilization = hostile;
    std::string wire;
    append_decide_request(wire, request);

    const auto decoded =
        decode_decide_request(bytes_of(wire) + kHeaderSize, kDecideRequestSize);
    ASSERT_TRUE(decoded.has_value());
    if (std::isnan(hostile)) {
      EXPECT_TRUE(std::isnan(decoded->operating_utilization));
    } else {
      EXPECT_EQ(decoded->operating_utilization, hostile);
    }
  }
}

// --- exact wire bytes ------------------------------------------------------
//
// Hand-written from the layout in protocol.hpp, one literal per field, so an
// encoder change that moves any byte fails here even when it still decodes.

std::string hex(const std::string& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

TEST(WireBytesTest, DecideRequestFrame) {
  DecideRequest request;
  request.facility = "aps";
  request.transfer_size_bytes = 0x0102030405060708ull;
  request.operating_utilization = 0.5;
  request.path_hops = 3;
  std::string wire;
  append_decide_request(wire, request);
  EXPECT_EQ(hex(wire),
            "53535331" "0100" "0100" "30000000"              // SSS1 v1 type 1, 48 bytes
            "617073" "000000000000000000000000000000000000000000"  // "aps" + 21 NULs
            "0807060504030201"                             // transfer_size_bytes
            "000000000000e03f"                             // 0.5
            "03000000"                                     // path_hops
            "00000000");                                   // reserved
}

TEST(WireBytesTest, DecideResponseFrame) {
  DecideResponse response;
  response.status = 0;
  response.decision = WireDecision::kStream;
  response.t_stream_s = 0.125;
  response.t_stage_s = 0.25;
  response.t_local_s = 1.5;
  response.t_worst_transfer_s = 2.0;
  response.sss = -0.0;
  response.profile_generation = 0x1122334455667788ull;
  response.operating_utilization = 0.5;
  response.path_hops = 3;
  response.flags = kFlagUtilizationClamped;
  std::string wire;
  append_decide_response(wire, response);
  EXPECT_EQ(hex(wire),
            "53535331" "0100" "0300" "48000000"  // SSS1 v1 type 3, 72 bytes
            "00000000"                           // status
            "01000000"                           // decision = stream
            "000000000000c03f"                   // t_stream_s 0.125
            "000000000000d03f"                   // t_stage_s 0.25
            "000000000000f83f"                   // t_local_s 1.5
            "0000000000000040"                   // t_worst_transfer_s 2.0
            "0000000000000080"                   // sss -0.0
            "8877665544332211"                   // profile_generation
            "000000000000e03f"                   // operating_utilization 0.5
            "03000000"                           // path_hops
            "01000000");                         // flags
}

TEST(WireBytesTest, ErrorResponseFrame) {
  std::string wire;
  append_error_response(wire, ErrorCode::kUnknownFacility, "nope");
  EXPECT_EQ(hex(wire),
            "53535331" "0100" "0500" "08000000"  // SSS1 v1 type 5, 8 bytes
            "06000000"                           // kUnknownFacility
            "6e6f7065");                         // "nope"
}

TEST(WireBytesTest, StatsFrames) {
  std::string request;
  append_stats_request(request);
  EXPECT_EQ(hex(request), "53535331" "0100" "0200" "00000000");
  std::string response;
  append_stats_response(response, "{}");
  EXPECT_EQ(hex(response), "53535331" "0100" "0400" "02000000" "7b7d");
}

TEST(WireBytesTest, FramesAppendRatherThanReplace) {
  std::string wire = "xy";
  append_stats_request(wire);
  append_error_response(wire, ErrorCode::kInternal, "");
  EXPECT_EQ(hex(wire), "7879"
                       "53535331" "0100" "0200" "00000000"
                       "53535331" "0100" "0500" "04000000" "08000000");
}

// Seeded property: any DecideResponse survives encode -> decode bit for bit,
// including NaN payloads (quiet and signalling), -0.0, +/-Inf, denormals
// and the extreme generations.
TEST(WireBytesTest, RandomDecideResponsesRoundTripBitExactly) {
  const std::uint64_t special[] = {
      0x7ff8000000000000ull,  // quiet NaN
      0xfff8000000000123ull,  // negative quiet NaN with payload
      0x7ff0000000000001ull,  // signalling NaN
      0x7ff0000000000000ull,  // +Inf
      0xfff0000000000000ull,  // -Inf
      0x8000000000000000ull,  // -0.0
      0x0000000000000001ull,  // smallest denormal
      0x0000000000000000ull,  // +0.0
  };
  std::mt19937_64 rng(14);
  auto draw_f64 = [&] {
    const std::uint64_t r = rng();
    return std::bit_cast<double>(r % 4 == 0 ? special[(r >> 2) % std::size(special)]
                                            : rng());
  };
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int i = 0; i < 4096; ++i) {
    DecideResponse response;
    response.status = static_cast<std::uint32_t>(rng());
    response.decision = static_cast<WireDecision>(rng() % 3);
    response.t_stream_s = draw_f64();
    response.t_stage_s = draw_f64();
    response.t_local_s = draw_f64();
    response.t_worst_transfer_s = draw_f64();
    response.sss = draw_f64();
    const std::uint64_t g = rng();
    response.profile_generation = g % 3 == 0 ? UINT64_MAX : (g % 3 == 1 ? 0 : rng());
    response.operating_utilization = draw_f64();
    response.path_hops = static_cast<std::uint32_t>(rng());
    response.flags = static_cast<std::uint32_t>(rng());

    std::string wire;
    append_decide_response(wire, response);
    ASSERT_EQ(wire.size(), kHeaderSize + kDecideResponseSize);
    const auto decoded =
        decode_decide_response(bytes_of(wire) + kHeaderSize, kDecideResponseSize);
    ASSERT_TRUE(decoded.has_value()) << "case " << i;
    EXPECT_EQ(decoded->status, response.status);
    EXPECT_EQ(decoded->decision, response.decision);
    EXPECT_EQ(bits(decoded->t_stream_s), bits(response.t_stream_s));
    EXPECT_EQ(bits(decoded->t_stage_s), bits(response.t_stage_s));
    EXPECT_EQ(bits(decoded->t_local_s), bits(response.t_local_s));
    EXPECT_EQ(bits(decoded->t_worst_transfer_s), bits(response.t_worst_transfer_s));
    EXPECT_EQ(bits(decoded->sss), bits(response.sss));
    EXPECT_EQ(decoded->profile_generation, response.profile_generation);
    EXPECT_EQ(bits(decoded->operating_utilization), bits(response.operating_utilization));
    EXPECT_EQ(decoded->path_hops, response.path_hops);
    EXPECT_EQ(decoded->flags, response.flags);
  }
}

TEST(ProtocolTest, LittleEndianPrimitivesRoundTrip) {
  const std::string out = le(0xBEEF, 2) + le(0xDEADBEEFu, 4) + le(0x0123456789ABCDEFull, 8) +
                          le(std::bit_cast<std::uint64_t>(-2.5e-3), 8);
  const unsigned char* p = bytes_of(out);
  EXPECT_EQ(get_u16(p), 0xBEEF);
  EXPECT_EQ(get_u32(p + 2), 0xDEADBEEFu);
  EXPECT_EQ(get_u64(p + 6), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(get_f64(p + 14), -2.5e-3);
  // Explicit little-endian byte order, not host order.
  EXPECT_EQ(static_cast<unsigned char>(out[0]), 0xEF);
  EXPECT_EQ(static_cast<unsigned char>(out[1]), 0xBE);
}

}  // namespace
}  // namespace sss::serve
