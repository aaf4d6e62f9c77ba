// Span tracer for the end-to-end benchmark.
//
// The benchmark is the application: it owns every pump loop, so it can
// wrap each call it makes into a library layer in a span without touching
// library code. Tracing is a process-wide switch. When it is off a span
// costs one load of a global flag; when it is on, a span reads
// steady_clock twice and folds its duration into per-thread aggregates
// (calls, total, self = total minus the time covered by nested spans).
// steady_clock rather than a bare cycle counter: its reads are ordered,
// so short spans do not leak their work into the gaps between them.
// The first spans of the run, up to a fixed budget, are also kept raw
// for the Chrome trace_event dump written at the end.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>

namespace e2e {

/// Every layer boundary the benchmark times. Names follow the
/// `<layer>.<call>` vocabulary of the metrics.
enum class Span : std::uint8_t {
  kLtEncode,             ///< lt::LtEncoder::encode
  kCoreRecode,           ///< Endpoint::start_transfer (protocol emit + offer)
  kOfferPacket,          ///< Endpoint::offer_packet
  kPollTransmit,         ///< Endpoint::poll_transmit
  kHandleFrame,          ///< Endpoint::handle_frame
  kTick,                 ///< Endpoint::tick
  kRouteFrame,           ///< ShardedEndpoint::route_frame
  kShardedPollTransmit,  ///< ShardedEndpoint::poll_transmit
  kNetSend,              ///< UdpTransport::send_batch / SimChannel::send
  kNetRecv,              ///< UdpTransport::recv_batch / SimChannel::recv
  kFinishAndVerify,      ///< NodeProtocol::finish_and_verify
  kHashVerify,           ///< benchmark-side FNV-1a check of decoded bytes
  kCount,
};

const char* span_name(Span span);

struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

struct ThreadTrace;

inline std::atomic<bool> g_tracing{false};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Names the calling thread's role (call before its first span).
void set_thread_role(const char* role);

/// Adds the totals of every thread named `role_filter`, or of all threads
/// when it is null, into `out`.
void sum_totals(SpanTotals out[], const char* role_filter);
/// Clears aggregates and raw spans of every registered thread.
void reset_traces();
/// Writes the kept raw spans as Chrome trace_event JSON ("ph":"X").
void dump_chrome_trace(std::ostream& out);

class Scope {
 public:
  explicit Scope(Span span) : span_(span) {
    if (g_tracing.load(std::memory_order_relaxed)) begin();
  }
  ~Scope() {
    if (trace_ != nullptr) end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void begin();
  void end();

  Span span_;
  ThreadTrace* trace_ = nullptr;
};

/// Runs `fn` inside a span and returns its result.
template <typename Fn>
auto timed(Span span, Fn&& fn) {
  Scope scope(span);
  return fn();
}

/// Heap allocations made by the whole process so far (global operator
/// new is replaced in alloc_count.cpp).
std::uint64_t heap_allocations();

}  // namespace e2e
