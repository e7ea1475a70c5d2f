// Copyright (c) 2026 moqo authors. MIT license.
//
// The moqo wire protocol (PR 7): a minimal length-prefixed binary framing
// for streaming FrontierSessions over a socket, dependency-free on both
// sides. All integers are little-endian; doubles travel as their IEEE-754
// bit pattern (memcpy through uint64_t), which is what makes a frontier
// received over the wire *byte-identical* to the in-process PlanSet costs
// it was encoded from.
//
// Frame layout (8-byte header + payload):
//
//   offset  size  field
//   0       2     magic 0x514D ("MQ")
//   2       1     protocol version (1)
//   3       1     message type (MsgType)
//   4       4     payload length in bytes
//
// Client -> server: OPEN_FRONTIER, SELECT, CANCEL, CLOSE.
// Server -> client: FRONTIER_UPDATE (one per OnRefined publish,
// server-pushed), SELECT_RESULT, DONE, ERROR. See examples/net_client.cc
// for a walked-through exchange and README.md for the message table.
//
// Queries travel by name (query_id), resolved server-side through
// NetOptions::resolve_query: the serving tier owns the catalog, clients
// only name what they want optimized. Frontier updates carry the frontier
// SUMMARY — per-plan cost vectors + the achieved alpha — not the plan
// trees; SELECT returns the chosen plan's index and costs, which is what
// a remote caller acts on.
//
// This header is deliberately transport-free (no sockets): the codec is
// unit-testable byte-by-byte, and both the epoll server and the blocking
// client build on the same functions.

#ifndef MOQO_NET_WIRE_H_
#define MOQO_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace moqo {

class PlanSet;

namespace net {

inline constexpr uint16_t kMagic = 0x514D;  // "MQ" on the wire.
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kHeaderBytes = 8;
/// Default per-frame payload cap; NetOptions can lower/raise it. Oversized
/// frames are a protocol error (connection closed), not a buffering
/// request — the cap is what bounds per-connection memory.
inline constexpr size_t kDefaultMaxFrameBytes = 1 << 20;

enum class MsgType : uint8_t {
  // Client -> server.
  kOpenFrontier = 1,
  kSelect = 2,
  kCancel = 3,
  kClose = 4,
  // Server -> client.
  kFrontierUpdate = 16,
  kSelectResult = 17,
  kDone = 18,
  kError = 19,
};

/// Stable machine-readable error codes carried by ERROR frames. Values are
/// wire contract: never renumber, only append. A client that does not
/// recognize a code should treat it as fatal (every current code closes
/// the connection server-side).
enum class ErrorCode : uint8_t {
  kProtocol = 1,      ///< Out-of-order or malformed message; fatal.
  kUnknownQuery = 2,  ///< resolve_query had no entry for the id; fatal.
  kRejected = 3,      ///< Admission control shed the open; fatal.
  kInternal = 4,      ///< Server-side failure outside the client's control.
  kOverloaded = 5,    ///< Transient capacity exhaustion; retrying may work.
  kTimeout = 6,       ///< Server-enforced deadline expired (idle/handshake).
};

/// Stable lowercase token for an ErrorCode ("protocol", "timeout", ...);
/// "unknown" for values outside the enum. Intended for logs and clients —
/// tokens are part of the documented protocol (README error table).
const char* ErrorCodeName(ErrorCode code);

/// Largest ladder an OPEN_FRONTIER may request. The server rejects more as
/// a protocol error: the ladder is built on the event-loop thread, and no
/// useful refinement has anywhere near this many rungs.
inline constexpr int32_t kMaxLadderSteps = 64;

/// OPEN_FRONTIER: ProblemSpec (query by id + objectives + overrides) and
/// the SessionOptions ladder knobs, mirroring OpenFrontier(spec, options).
/// Every alpha must be finite and max_steps <= kMaxLadderSteps.
struct OpenFrontierMsg {
  std::string query_id;
  /// Objective enum values, in dimension order.
  std::vector<uint8_t> objectives;
  int8_t algorithm = -1;  ///< AlgorithmKind value; -1 = policy decides.
  double alpha = 0;       ///< Target alpha override; <= 0 = policy.
  int32_t parallelism = 0;  ///< DP parallelism override; 0 = policy.
  // SessionOptions.
  double alpha_start = 4.0;
  double alpha_target = -1;
  int32_t max_steps = 4;
  int64_t step_deadline_ms = -1;
  uint8_t quick_first = 1;
};

/// SELECT: scalarize the best frontier so far. `tag` is echoed in the
/// SELECT_RESULT so a pipelining client can match answers to questions.
struct SelectMsg {
  uint64_t tag = 0;
  std::vector<double> weights;  ///< Empty = uniform.
  std::vector<double> bounds;   ///< Empty = unbounded.
};

/// FRONTIER_UPDATE: one RefinedFrontier publish, server-pushed. Costs are
/// row-major [plan][dim], bit-exact.
struct FrontierUpdateMsg {
  int32_t step = 0;
  double alpha = 0;
  uint8_t from_cache = 0;
  double step_ms = 0;
  uint32_t dims = 0;
  std::vector<double> costs;  ///< size = num_plans * dims.

  uint32_t num_plans() const {
    return dims == 0 ? 0 : static_cast<uint32_t>(costs.size()) / dims;
  }
};

/// SELECT_RESULT: the chosen plan's index within the frontier of `step`,
/// its cost vector, and the scalarized cost. index == -1 means no frontier
/// was published yet.
struct SelectResultMsg {
  uint64_t tag = 0;
  int32_t step = -1;
  double alpha = 0;
  int32_t plan_index = -1;
  double weighted_cost = 0;
  std::vector<double> cost;
};

/// DONE: the session completed (target reached, cancelled, shed, degraded
/// or rejected); no further FRONTIER_UPDATE frames will arrive.
struct DoneMsg {
  uint8_t target_reached = 0;
  uint8_t cancelled = 0;
  uint8_t degraded = 0;
  uint8_t shed = 0;
  uint8_t rejected = 0;
  int32_t steps_published = 0;
  double best_alpha = 0;
};

struct ErrorMsg {
  uint8_t code = 0;
  std::string message;
};

// ---- Encoding (returns complete frames, header included). ----

std::string EncodeOpenFrontier(const OpenFrontierMsg& msg);
std::string EncodeSelect(const SelectMsg& msg);
std::string EncodeCancel();
std::string EncodeClose();
std::string EncodeFrontierUpdate(const FrontierUpdateMsg& msg);
std::string EncodeSelectResult(const SelectResultMsg& msg);
std::string EncodeDone(const DoneMsg& msg);
std::string EncodeError(ErrorCode code, const std::string& message);

/// Builds the FRONTIER_UPDATE summary of one published frontier: every
/// plan's cost vector, bit-exact. The byte-identity acceptance test
/// encodes an in-process session's history through this same function.
FrontierUpdateMsg MakeFrontierUpdate(int step, double alpha, bool from_cache,
                                     double step_ms, const PlanSet& plan_set);

// ---- Decoding (payload only, header already stripped). Each returns
// false on truncated/malformed payloads, leaving *out unspecified. ----

bool DecodeOpenFrontier(const uint8_t* data, size_t size,
                        OpenFrontierMsg* out);
bool DecodeSelect(const uint8_t* data, size_t size, SelectMsg* out);
bool DecodeFrontierUpdate(const uint8_t* data, size_t size,
                          FrontierUpdateMsg* out);
bool DecodeSelectResult(const uint8_t* data, size_t size,
                        SelectResultMsg* out);
bool DecodeDone(const uint8_t* data, size_t size, DoneMsg* out);
bool DecodeError(const uint8_t* data, size_t size, ErrorMsg* out);

/// Incremental frame splitter over an arbitrary-chunked byte stream (the
/// read side of a non-blocking socket): feed whatever recv returned,
/// then drain frames until kNeedMore. Bad magic/version and oversized
/// declarations are FATAL (the stream cannot be resynchronized) — the
/// caller closes the connection.
class FrameDecoder {
 public:
  enum class Status {
    kFrame,      ///< *type/*payload hold one complete frame.
    kNeedMore,   ///< Feed more bytes.
    kBadHeader,  ///< Wrong magic or version; close the connection.
    kOversized,  ///< Declared payload exceeds the cap; close.
  };

  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(const void* data, size_t size) {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + size);
  }

  /// Extracts the next complete frame. kFrame consumes it from the
  /// buffer; fatal statuses are sticky.
  Status Next(MsgType* type, std::vector<uint8_t>* payload);

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  size_t max_frame_bytes_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  ///< Prefix of buffer_ already handed out.
  /// Sticky fatal status (kBadHeader/kOversized); kFrame = healthy.
  Status broken_ = Status::kFrame;
};

}  // namespace net
}  // namespace moqo

#endif  // MOQO_NET_WIRE_H_
