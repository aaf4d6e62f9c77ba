// Loopback I/O core — the socket plumbing every UDP driver shares.
//
// The stream and cache harnesses, the file-distribution example and the
// endpoint bench all move frames the same way: a fleet of sockets on
// 127.0.0.1 that know each other by dense PeerIndex, a sans-I/O endpoint
// drained through poll_transmit into sendmmsg batches, datagrams read
// back in recvmmsg batches, one thread per simulated user, and latency
// quantiles folded out of a telemetry registry. This is the one copy;
// each driver keeps only its per-user logic.
//
//   open_loopback   client and service sockets on 127.0.0.1, cross-
//                   interned: client i is PeerIndex i on every service
//                   socket, service j is PeerIndex j on every client
//   BatchIo         poll → keep → send_batch, and recv_batch → handler,
//                   over reusable scratch frames (one per thread)
//   ThreadGroup     worker threads that reclaim their arena on exit
//   latency_quantiles / MicrosClock
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "net/udp_transport.hpp"
#include "session/endpoint.hpp"
#include "telemetry/metrics.hpp"
#include "wire/frame.hpp"

namespace ltnc::harness {

using PeerIndex = net::UdpTransport::PeerIndex;

/// Sockets bound on 127.0.0.1 that address each other by index. A
/// session::PeerId equal to the socket PeerIndex needs no mapping table.
struct Loopback {
  std::vector<std::unique_ptr<net::UdpTransport>> clients;
  std::vector<std::unique_ptr<net::UdpTransport>> services;
};

/// Opens `clients` + `services` ephemeral sockets on 127.0.0.1, interns
/// every client on every service socket (client i → PeerIndex i) and
/// every service on every client socket (service j → PeerIndex j).
/// nullopt with a reason in `error` when a bind fails.
std::optional<Loopback> open_loopback(std::size_t clients,
                                      std::size_t services,
                                      std::string* error);

/// Accepts every frame (BatchIo::transmit's default keep hook).
struct KeepAll {
  bool operator()(session::PeerId, const wire::Frame&) const { return true; }
};

/// Scratch frames for batched socket I/O. Frames popped into it keep
/// their arena storage across calls (poll_transmit recycles the buffer it
/// is handed), so a warm loop does not lease. One instance per thread.
class BatchIo {
 public:
  static constexpr std::size_t kBatch = net::UdpTransport::kMaxBatch;
  static constexpr std::size_t kUntilEmpty =
      std::numeric_limits<std::size_t>::max();

  /// Pops frames with `poll(PeerId&, wire::Frame&)` and sends them in
  /// send_batch calls of up to kBatch, until poll runs dry or
  /// `max_batches` batches went out. `keep(dest, frame)` sees each
  /// popped frame first and may observe it; false drops it before the
  /// socket (emulated loss). Frames the kernel refuses are dropped too
  /// (datagram semantics). Returns the frames handed to the socket.
  template <typename Poll, typename Keep = KeepAll>
  std::size_t transmit(net::UdpTransport& socket, Poll&& poll,
                       Keep&& keep = {},
                       std::size_t max_batches = kUntilEmpty) {
    std::size_t handed = 0;
    for (std::size_t batch = 0; batch < max_batches; ++batch) {
      std::size_t n = 0;
      session::PeerId dest = 0;
      while (n < kBatch && poll(dest, tx_frames_[n])) {
        if (!keep(dest, tx_frames_[n])) continue;
        tx_items_[n] = net::UdpTransport::TxItem{dest, tx_frames_[n].bytes()};
        ++n;
      }
      if (n == 0) break;
      socket.send_batch({tx_items_.data(), n});
      handed += n;
    }
    return handed;
  }

  /// Endpoint shorthand: drains `endpoint`'s transmit queue.
  template <typename Keep = KeepAll>
  std::size_t transmit(net::UdpTransport& socket, session::Endpoint& endpoint,
                       Keep&& keep = {}) {
    return transmit(
        socket,
        [&endpoint](session::PeerId& dest, wire::Frame& frame) {
          return endpoint.poll_transmit(dest, frame);
        },
        std::forward<Keep>(keep));
  }

  /// Reads up to `max_batches` recv_batch calls (stopping at the first
  /// empty one) and hands each datagram to `handle(PeerIndex,
  /// wire::Frame&)`; the handler may take the frame's storage. Returns
  /// the datagrams received.
  template <typename Handle>
  std::size_t receive(net::UdpTransport& socket, Handle&& handle,
                      std::size_t max_batches = 1) {
    std::size_t total = 0;
    for (std::size_t batch = 0; batch < max_batches; ++batch) {
      const std::size_t n = socket.recv_batch(rx_frames_, rx_peers_);
      for (std::size_t i = 0; i < n; ++i) handle(rx_peers_[i], rx_frames_[i]);
      total += n;
      if (n == 0) break;
    }
    return total;
  }

 private:
  std::array<wire::Frame, kBatch> tx_frames_;
  std::array<net::UdpTransport::TxItem, kBatch> tx_items_;
  std::array<wire::Frame, kBatch> rx_frames_;
  std::array<PeerIndex, kBatch> rx_peers_{};
};

/// Worker threads joined together. Each runs its body, then
/// WordArena::reclaim_local() — the body's locals (endpoints, frames) are
/// gone by then, so every block they leased is back in the free lists.
class ThreadGroup {
 public:
  ThreadGroup() = default;
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() { join(); }

  template <typename Body>
  void spawn(Body&& body) {
    threads_.emplace_back([body = std::forward<Body>(body)]() mutable {
      body();
      WordArena::reclaim_local();
    });
  }

  void join() {
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

 private:
  std::vector<std::thread> threads_;
};

/// Microseconds since construction on the steady clock: the UDP drivers'
/// tick domain.
class MicrosClock {
 public:
  std::uint64_t operator()() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

struct LatencyQuantiles {
  std::uint64_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;

  /// Copies into a run-stats struct's latency_samples / latency_p50 /
  /// latency_p99 / latency_p999 fields.
  template <typename RunStats>
  void store_into(RunStats& out) const {
    out.latency_samples = samples;
    out.latency_p50 = p50;
    out.latency_p99 = p99;
    out.latency_p999 = p999;
  }
};

/// Sample count and p50/p99/p999 of histogram `name` (all zero when the
/// registry has no such histogram).
LatencyQuantiles latency_quantiles(const telemetry::Registry& registry,
                                   std::string_view name);

}  // namespace ltnc::harness
