#include "serve/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace sss::serve {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone:
      return "ok";
    case ErrorCode::kBadMagic:
      return "bad magic";
    case ErrorCode::kUnsupportedVersion:
      return "unsupported protocol version";
    case ErrorCode::kBadType:
      return "unknown message type";
    case ErrorCode::kBadLength:
      return "bad payload length";
    case ErrorCode::kMalformedRequest:
      return "malformed request";
    case ErrorCode::kUnknownFacility:
      return "unknown facility";
    case ErrorCode::kEmptySnapshot:
      return "no profiles loaded";
    case ErrorCode::kInternal:
      return "internal error";
  }
  return "unknown error";
}

bool is_fatal(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadMagic:
    case ErrorCode::kUnsupportedVersion:
    case ErrorCode::kBadType:
    case ErrorCode::kBadLength:
      return true;
    default:
      return false;
  }
}

const char* to_string(WireDecision decision) {
  switch (decision) {
    case WireDecision::kLocal:
      return "local";
    case WireDecision::kStream:
      return "stream";
    case WireDecision::kStage:
      return "stage";
  }
  return "unknown";
}

// --- little-endian primitives ----------------------------------------------
//
// store() is the one encoder: explicit wire-order byte shifts, which
// compilers merge into single stores on little-endian hosts.

namespace {

template <typename T>
void store(char* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<char>(v >> (8 * i));
}

void store(char* p, double v) { store(p, std::bit_cast<std::uint64_t>(v)); }

}  // namespace

std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

double get_f64(const unsigned char* p) { return std::bit_cast<double>(get_u64(p)); }

// --- encoding --------------------------------------------------------------

namespace {

// Grow `out` by one whole frame (payload zeroed), write its header, and
// return the payload's first byte.
char* begin_frame(std::string& out, MessageType type, std::size_t payload_length) {
  const std::size_t at = out.size();
  out.resize(at + kHeaderSize + payload_length);
  char* p = out.data() + at;
  store(p, kMagic);
  store(p + 4, kProtocolVersion);
  store(p + 6, static_cast<std::uint16_t>(type));
  store(p + 8, static_cast<std::uint32_t>(payload_length));
  return p + kHeaderSize;
}

}  // namespace

void append_decide_request(std::string& out, const DecideRequest& request) {
  char* p = begin_frame(out, MessageType::kDecideRequest, kDecideRequestSize);
  // The name field is NUL-padded and keeps at least one terminating NUL; the
  // reserved u32 stays zero.
  std::memcpy(p, request.facility.data(),
              std::min(request.facility.size(), kFacilityNameSize - 1));
  store(p + kFacilityNameSize, request.transfer_size_bytes);
  store(p + kFacilityNameSize + 8, request.operating_utilization);
  store(p + kFacilityNameSize + 16, request.path_hops);
}

void append_decide_response(std::string& out, const DecideResponse& response) {
  char* p = begin_frame(out, MessageType::kDecideResponse, kDecideResponseSize);
  store(p, response.status);
  store(p + 4, static_cast<std::uint32_t>(response.decision));
  store(p + 8, response.t_stream_s);
  store(p + 16, response.t_stage_s);
  store(p + 24, response.t_local_s);
  store(p + 32, response.t_worst_transfer_s);
  store(p + 40, response.sss);
  store(p + 48, response.profile_generation);
  store(p + 56, response.operating_utilization);
  store(p + 64, response.path_hops);
  store(p + 68, response.flags);
}

void append_stats_request(std::string& out) {
  begin_frame(out, MessageType::kStatsRequest, 0);
}

void append_stats_response(std::string& out, std::string_view json) {
  char* p = begin_frame(out, MessageType::kStatsResponse, json.size());
  std::copy(json.begin(), json.end(), p);
}

void append_error_response(std::string& out, ErrorCode code, std::string_view message) {
  char* p = begin_frame(out, MessageType::kErrorResponse, 4 + message.size());
  store(p, static_cast<std::uint32_t>(code));
  std::copy(message.begin(), message.end(), p + 4);
}

// --- decoding --------------------------------------------------------------

MessageHeader decode_header(const unsigned char* bytes) {
  MessageHeader header;
  header.magic = get_u32(bytes);
  header.version = get_u16(bytes + 4);
  header.type = get_u16(bytes + 6);
  header.payload_length = get_u32(bytes + 8);
  return header;
}

std::optional<DecideRequest> decode_decide_request(const unsigned char* payload,
                                                   std::size_t size) {
  if (size != kDecideRequestSize) return std::nullopt;
  DecideRequest request;
  // Facility: NUL-padded; the name is the bytes before the first NUL, and
  // every byte after it must also be NUL (rejects garbage in the padding).
  std::size_t name_end = 0;
  while (name_end < kFacilityNameSize && payload[name_end] != 0) ++name_end;
  if (name_end == kFacilityNameSize) return std::nullopt;  // missing terminator
  for (std::size_t i = name_end; i < kFacilityNameSize; ++i) {
    if (payload[i] != 0) return std::nullopt;
  }
  request.facility.assign(reinterpret_cast<const char*>(payload), name_end);
  request.transfer_size_bytes = get_u64(payload + kFacilityNameSize);
  request.operating_utilization = get_f64(payload + kFacilityNameSize + 8);
  request.path_hops = get_u32(payload + kFacilityNameSize + 16);
  const std::uint32_t reserved = get_u32(payload + kFacilityNameSize + 20);
  if (reserved != 0) return std::nullopt;
  return request;
}

std::optional<DecideResponse> decode_decide_response(const unsigned char* payload,
                                                     std::size_t size) {
  if (size != kDecideResponseSize) return std::nullopt;
  DecideResponse response;
  response.status = get_u32(payload);
  const std::uint32_t decision = get_u32(payload + 4);
  if (decision > static_cast<std::uint32_t>(WireDecision::kStage)) return std::nullopt;
  response.decision = static_cast<WireDecision>(decision);
  response.t_stream_s = get_f64(payload + 8);
  response.t_stage_s = get_f64(payload + 16);
  response.t_local_s = get_f64(payload + 24);
  response.t_worst_transfer_s = get_f64(payload + 32);
  response.sss = get_f64(payload + 40);
  response.profile_generation = get_u64(payload + 48);
  response.operating_utilization = get_f64(payload + 56);
  response.path_hops = get_u32(payload + 64);
  response.flags = get_u32(payload + 68);
  return response;
}

std::optional<ErrorResponse> decode_error_response(const unsigned char* payload,
                                                   std::size_t size) {
  if (size < 4) return std::nullopt;
  ErrorResponse error;
  error.code = static_cast<ErrorCode>(get_u32(payload));
  error.message.assign(reinterpret_cast<const char*>(payload) + 4, size - 4);
  return error;
}

// --- incremental framing ---------------------------------------------------

void FrameReader::feed(const void* bytes, std::size_t size) {
  if (error_ != ErrorCode::kNone) return;  // stream already condemned
  const auto* p = static_cast<const unsigned char*>(bytes);
  buffer_.insert(buffer_.end(), p, p + size);
}

void FrameReader::compact() {
  // Reclaim consumed bytes once they dominate the buffer; amortized O(1).
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

std::optional<Frame> FrameReader::next() {
  if (error_ != ErrorCode::kNone) return std::nullopt;
  compact();
  if (buffer_.size() - consumed_ < kHeaderSize) return std::nullopt;
  const unsigned char* head = buffer_.data() + consumed_;
  const MessageHeader header = decode_header(head);
  if (header.magic != kMagic) {
    error_ = ErrorCode::kBadMagic;
    return std::nullopt;
  }
  if (header.payload_length > kMaxPayloadLength) {
    error_ = ErrorCode::kBadLength;
    return std::nullopt;
  }
  if (buffer_.size() - consumed_ < kHeaderSize + header.payload_length) {
    return std::nullopt;  // incomplete frame; wait for more bytes
  }
  Frame frame;
  frame.header = header;
  frame.payload = head + kHeaderSize;
  frame.payload_size = header.payload_length;
  consumed_ += kHeaderSize + header.payload_length;
  return frame;
}

}  // namespace sss::serve
