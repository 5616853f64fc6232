// protocol.hpp — the decide_server wire protocol.
//
// A fixed-layout, length-prefixed binary protocol: every message is a
// 12-byte header followed by `payload_length` payload bytes.  All integers
// are little-endian on the wire (explicit byte serialization, not struct
// memcpy, so the encoding is identical on any host and malformed bytes are
// testable without a socket).  Doubles travel as their IEEE-754 bit
// pattern in a little-endian u64.
//
//   Header (12 bytes):
//     u32 magic   = 0x31535353  ("SSS1" on the wire)
//     u16 version = kProtocolVersion
//     u16 type    (MessageType)
//     u32 payload_length
//
//   DecideRequest (48 bytes): facility char[24] (NUL-padded), u64
//   transfer_size_bytes (0 = the profile's calibrated S_unit), f64
//   operating_utilization (0 = the profile's calibrated operating point),
//   u32 path_hops, u32 reserved (must be 0).
//
//   DecideResponse (72 bytes): u32 status, u32 decision, f64 t_stream_s,
//   f64 t_stage_s, f64 t_local_s, f64 t_worst_transfer_s, f64 sss,
//   u64 profile_generation, f64 operating_utilization, u32 path_hops,
//   u32 flags (bit 0: utilization clamped into the measured range).
//
//   StatsRequest (0 bytes) / StatsResponse (UTF-8 JSON payload).
//
//   ErrorResponse (u32 code + UTF-8 message): protocol-level errors
//   (version mismatch, oversized length, malformed frame) answer with a
//   clean ErrorResponse and then close the connection; request-level
//   errors (unknown facility, invalid utilization) answer and keep the
//   connection open.
//
// The header layout — magic, version, type, length — is frozen across all
// future protocol versions, which is what lets a v1 server answer a v2
// client with kUnsupportedVersion instead of dropping the connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sss::serve {

inline constexpr std::uint32_t kMagic = 0x31535353u;  // "SSS1" little-endian
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 12;
inline constexpr std::size_t kFacilityNameSize = 24;
inline constexpr std::size_t kDecideRequestSize = 48;
inline constexpr std::size_t kDecideResponseSize = 72;
// Upper bound on any payload this version accepts; a longer advertised
// length is a protocol error, not an allocation request (a hostile header
// cannot make the server reserve 4 GB).
inline constexpr std::uint32_t kMaxPayloadLength = 1 << 20;
inline constexpr std::uint32_t kMaxPathHops = 64;
// Request-level sanity bound on transfer_size_bytes: an exabyte-scale size
// is a corrupt or hostile field, not a workload — and past this point the
// double conversion in the model would silently lose integer precision.
inline constexpr std::uint64_t kMaxTransferSizeBytes = 1ull << 60;

enum class MessageType : std::uint16_t {
  kDecideRequest = 1,
  kStatsRequest = 2,
  kDecideResponse = 3,
  kStatsResponse = 4,
  kErrorResponse = 5,
};

enum class ErrorCode : std::uint32_t {
  kNone = 0,
  kBadMagic = 1,           // fatal: cannot trust the stream framing
  kUnsupportedVersion = 2, // fatal: header is readable, body layout is not
  kBadType = 3,            // fatal: unknown message type
  kBadLength = 4,          // fatal: length > kMaxPayloadLength or wrong for type
  kMalformedRequest = 5,   // request-level: field out of range
  kUnknownFacility = 6,    // request-level: no profile for that name
  kEmptySnapshot = 7,      // request-level: server has no profiles loaded
  kInternal = 8,
};

[[nodiscard]] const char* to_string(ErrorCode code);

// True for errors after which the stream framing can no longer be trusted;
// the server answers with an ErrorResponse and then closes the connection.
[[nodiscard]] bool is_fatal(ErrorCode code);

struct MessageHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t type = 0;
  std::uint32_t payload_length = 0;
};

// Decision codes on the wire (stable, independent of core enum ordering).
enum class WireDecision : std::uint32_t {
  kLocal = 0,
  kStream = 1,
  kStage = 2,
};

[[nodiscard]] const char* to_string(WireDecision decision);

struct DecideRequest {
  std::string facility;                  // <= kFacilityNameSize - 1 bytes
  std::uint64_t transfer_size_bytes = 0; // 0 = profile default S_unit
  double operating_utilization = 0.0;    // 0 = profile's calibrated point
  std::uint32_t path_hops = 0;           // 0 = profile default; <= kMaxPathHops
};

inline constexpr std::uint32_t kFlagUtilizationClamped = 1u << 0;

struct DecideResponse {
  std::uint32_t status = 0;  // ErrorCode::kNone for success
  WireDecision decision = WireDecision::kLocal;
  double t_stream_s = 0.0;
  double t_stage_s = 0.0;
  double t_local_s = 0.0;
  double t_worst_transfer_s = 0.0;
  double sss = 0.0;
  std::uint64_t profile_generation = 0;
  double operating_utilization = 0.0;
  std::uint32_t path_hops = 0;
  std::uint32_t flags = 0;
};

struct ErrorResponse {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
};

// --- little-endian field reads (exposed for tests/fuzzing) -----------------

[[nodiscard]] std::uint16_t get_u16(const unsigned char* p);
[[nodiscard]] std::uint32_t get_u32(const unsigned char* p);
[[nodiscard]] std::uint64_t get_u64(const unsigned char* p);
[[nodiscard]] double get_f64(const unsigned char* p);

// --- encoding --------------------------------------------------------------

// Each append_* writes one complete frame (header + payload) onto `out`:
// it grows `out` once by the whole frame, then stores every field at its
// fixed offset.  Append, not replace — writers coalesce many frames into
// one buffer and flush it with a single write(2).
void append_decide_request(std::string& out, const DecideRequest& request);
void append_decide_response(std::string& out, const DecideResponse& response);
void append_stats_request(std::string& out);
void append_stats_response(std::string& out, std::string_view json);
void append_error_response(std::string& out, ErrorCode code, std::string_view message);

// --- decoding --------------------------------------------------------------

// Header decode never fails structurally (12 fixed bytes); semantic
// validation happens in FrameReader / decode_*.
[[nodiscard]] MessageHeader decode_header(const unsigned char* bytes);

// Payload decoders: nullopt when the payload bytes are not a valid message
// of that type (wrong size, embedded NUL rules violated, reserved != 0).
[[nodiscard]] std::optional<DecideRequest> decode_decide_request(
    const unsigned char* payload, std::size_t size);
[[nodiscard]] std::optional<DecideResponse> decode_decide_response(
    const unsigned char* payload, std::size_t size);
[[nodiscard]] std::optional<ErrorResponse> decode_error_response(
    const unsigned char* payload, std::size_t size);

// --- incremental framing ---------------------------------------------------

// One decoded frame: the validated header plus a view of the payload bytes
// (valid until the next FrameReader call).
struct Frame {
  MessageHeader header;
  const unsigned char* payload = nullptr;
  std::size_t payload_size = 0;
};

// Incremental frame assembler for a byte stream that arrives in arbitrary
// chunks.  feed() appends bytes; next() yields the next complete frame or
// nullopt (need more bytes).  The first structural violation — bad magic,
// oversized length — latches `error()` and next() returns nullopt forever:
// once framing is untrustworthy nothing after the bad header is parsed.
// Version/type checks are NOT latched here (the server must answer a
// version-mismatched frame with a clean error, which requires reading it).
class FrameReader {
 public:
  void feed(const void* bytes, std::size_t size);
  [[nodiscard]] std::optional<Frame> next();
  [[nodiscard]] ErrorCode error() const { return error_; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<unsigned char> buffer_;
  std::size_t consumed_ = 0;
  ErrorCode error_ = ErrorCode::kNone;

  void compact();
};

}  // namespace sss::serve
