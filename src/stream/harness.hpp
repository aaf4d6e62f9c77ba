// Stream latency harnesses — the three drivers behind BENCH_stream.json
// and examples/live_stream.cpp, sharing one result shape:
//
//   run_sim_stream    deterministic net::SimChannel per receiver;
//                     loss/duplicate/reorder sweeps in simulated ticks
//   run_event_stream  dissem::TimerWheel broadcast at 10^4–10^5
//                     receivers — the scale point
//   run_udp_stream    real datagrams over UDP loopback, sender thread +
//                     one thread per receiver, microsecond tick domain
//
// Every driver wires a StreamSource (deadline-policy push side) against a
// fleet of stream::Receivers whose completion latencies land in shared
// telemetry::Histogram instruments; StreamRunStats folds the snapshot's
// p50/p99/p999 and the fleet's miss counters into plain numbers a bench
// can write and a smoke test can assert on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/emitter.hpp"
#include "net/sim_channel.hpp"
#include "stream/stream_source.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace ltnc::stream {

/// Outcome of one harness run, fleet-wide. Latency quantiles are in the
/// driver's tick domain (simulated ticks, or microseconds for UDP).
struct StreamRunStats {
  std::size_t receivers = 0;
  std::uint64_t blocks = 0;  ///< blocks the source emitted
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t expired_frames = 0;  ///< late symbols, summed over fleet
  std::uint64_t goodput_bytes = 0;
  std::uint64_t source_frames = 0;  ///< frames the source sent
  std::uint64_t duration_ticks = 0;
  std::uint64_t latency_samples = 0;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double latency_p999 = 0.0;
  /// Smoke criterion: every receiver decoded at least one block.
  bool every_receiver_decoded = false;

  double miss_rate() const {
    const std::uint64_t finalized = completed + missed;
    return finalized == 0
               ? 0.0
               : static_cast<double>(missed) / static_cast<double>(finalized);
  }
};

/// One BENCH_stream row: the run's shape (section, loss, block geometry),
/// every StreamRunStats field, and the wall-clock `seconds` it took.
metrics::RunRecord stream_run_record(const std::string& section, double loss,
                                     const StreamConfig& stream,
                                     const StreamRunStats& r, double seconds);

struct SimStreamConfig {
  StreamConfig stream;  ///< total_blocks must be nonzero
  net::SimChannelConfig channel;
  std::size_t receivers = 4;
  /// Push attempts per receiver per tick; 0 derives it from the block
  /// budget and cadence (enough to spend a full boosted budget in time).
  std::size_t pushes_per_tick = 0;
  /// Feed the channel's loss rate into the source's budget estimate (the
  /// perfect-estimator stand-in for the UDP path's measured feedback).
  bool adaptive_budget = false;
  std::uint64_t seed = 1;
  /// Metrics sink; nullptr runs against a private registry.
  telemetry::Registry* registry = nullptr;
};

/// Runs a full stream over per-receiver simulated channels until every
/// block is finalized on every receiver. Deterministic for a fixed config.
StreamRunStats run_sim_stream(const SimStreamConfig& config);

struct EventStreamConfig {
  StreamConfig stream;  ///< total_blocks must be nonzero
  std::size_t receivers = 10000;
  /// I.i.d. per receiver per symbol. Unlike the UDP driver this one
  /// feeds the rate into the budget estimate — the scale point is about
  /// holding 10^5 decoders, not about sweeping budget shortfall.
  double loss_rate = 0.0;
  /// Broadcast symbols per tick; 0 derives it from budget and cadence.
  std::size_t pushes_per_tick = 0;
  std::uint64_t seed = 1;
  telemetry::Registry* registry = nullptr;
};

/// Runs the stream through the timer-wheel event engine: one source
/// broadcasting to `receivers` sinks, per-receiver Bernoulli loss. The
/// per-tick cost is O(receivers × symbols), so this is the driver that
/// holds 10^4–10^5 receivers.
StreamRunStats run_event_stream(const EventStreamConfig& config);

struct UdpStreamConfig {
  /// Tick domain is microseconds here: ticks_per_block = µs between
  /// blocks (1e6 / fps), deadline_ticks = deadline in µs.
  StreamConfig stream;  ///< total_blocks must be nonzero
  std::size_t receivers = 2;
  /// Emulated sender-side loss (dropped before the socket), so loss is
  /// controlled even on a lossless loopback. Budgets do NOT see it
  /// unless the caller also sets stream.loss_estimate — fixed-budget
  /// sweeps want the miss curve, adaptive runs want it compensated.
  double loss_rate = 0.0;
  std::size_t pushes_per_iter = 0;  ///< 0 derives from budget and cadence
  std::uint64_t seed = 1;
  telemetry::Registry* registry = nullptr;
  /// Optional flight recorder for the sender endpoint (--trace reuse).
  telemetry::FlightRecorder* recorder = nullptr;
};

/// Runs the stream over real UDP loopback: the calling thread is the
/// sender, each receiver runs on its own thread with its own socket and
/// thread-local arena. Wall-clock timed; latencies are microseconds.
StreamRunStats run_udp_stream(const UdpStreamConfig& config);

}  // namespace ltnc::stream
