// unicast_udp — one LT source Endpoint streams one large content to one
// LtSinkProtocol receiver over 127.0.0.1, in one thread. No feedback per
// packet; the receiver's completion kAck crosses the socket back and is
// the sender's stop signal. Encode, sendmmsg, recvmmsg, deserialize and
// BP peeling at large k run one after another on one core.

#include "lt/lt_encoder.hpp"
#include "session/protocols.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace ltnc;
using net::UdpTransport;

constexpr std::size_t kBlocks = 4096;
constexpr std::size_t kBlockBytes = 1024;
constexpr std::size_t kBatch = UdpTransport::kMaxBatch;
// Failure budget: BP at this k needs ~1.1 k frames; 8 k means a wedge.
constexpr std::uint64_t kMaxFrames = 8 * kBlocks;
constexpr double kMaxSeconds = 30.0;
constexpr session::Instant kMaxAckTicks = 64;

session::EndpointConfig endpoint_config(bool receiver) {
  session::EndpointConfig cfg;
  cfg.k = kBlocks;
  cfg.payload_bytes = kBlockBytes;
  cfg.feedback = session::FeedbackMode::kNone;
  if (receiver) {
    cfg.announce_completion = true;
    cfg.response_timeout = 1;
    cfg.max_retries = 7;
  }
  return cfg;
}

/// Pops up to kBatch queued frames of `endpoint` into `frames`, all
/// addressed to socket peer `to`; returns how many.
std::size_t gather(session::Endpoint& endpoint, UdpTransport::PeerIndex to,
                   std::vector<wire::Frame>& frames,
                   std::vector<UdpTransport::TxItem>& items) {
  std::size_t n = 0;
  session::PeerId peer = 0;
  while (n < kBatch && timed(Span::kPollTransmit, [&] {
           return endpoint.poll_transmit(peer, frames[n]);
         })) {
    items[n] = {to, frames[n].bytes()};
    ++n;
  }
  return n;
}

}  // namespace

RepResult run_unicast_udp(std::uint64_t seed, Capture* capture) {
  RepResult r;
  r.receivers = 1;
  r.content_bytes = kBlocks * kBlockBytes;

  const std::int64_t setup_start = now_ns();
  const std::uint64_t content_seed = derive_seed(seed, 0);
  std::vector<Payload> natives =
      lt::make_native_payloads(kBlocks, kBlockBytes, content_seed);
  const std::uint64_t expected_hash = hash_natives(natives);
  lt::LtEncoder encoder(std::move(natives));
  Rng rng(derive_seed(seed, 1));
  auto rx = open_loopback_socket(0);
  auto tx = open_loopback_socket(rx->local_port());
  session::Endpoint sender(endpoint_config(false), nullptr);
  session::Endpoint receiver(
      endpoint_config(true),
      std::make_unique<session::LtSinkProtocol>(kBlocks, kBlockBytes));
  const auto& sink =
      static_cast<const session::LtSinkProtocol&>(*receiver.protocol());
  std::vector<wire::Frame> tx_frames(kBatch);
  std::vector<wire::Frame> rx_frames(kBatch);
  std::vector<UdpTransport::PeerIndex> rx_peers(kBatch);
  std::vector<UdpTransport::TxItem> items(kBatch);
  if (capture != nullptr) {
    capture->k = kBlocks;
    capture->payload_bytes = kBlockBytes;
  }
  r.setup_s = seconds_since(setup_start);

  r.round_s.reserve(kMaxFrames / kBatch + 1);
  r.round_cpu_s.reserve(kMaxFrames / kBatch + 1);
  const std::uint64_t allocs0 = heap_allocations();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  // A round is one batch sent and everything it delivered; the
  // verification after the last one is a round of its own.
  std::int64_t round_start = t0;
  double round_cpu_start = cpu0;
  std::uint64_t round_frames = 0;
  auto end_round = [&] {
    const std::int64_t round_end = now_ns();
    const double round_cpu_end = process_cpu_s();
    r.round_s.push_back(static_cast<double>(round_end - round_start) / 1e9);
    r.round_cpu_s.push_back(round_cpu_end - round_cpu_start);
    r.round_digest = derive_seed(r.round_digest, round_frames);
    round_start = round_end;
    round_cpu_start = round_cpu_end;
    round_frames = 0;
  };
  std::uint64_t sent = 0;
  UdpTransport::PeerIndex sender_at_rx = 0;  // interned on first receive
  while (!receiver.complete() && sent < kMaxFrames &&
         seconds_since(t0) < kMaxSeconds) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      const CodedPacket packet =
          timed(Span::kLtEncode, [&] { return encoder.encode(rng); });
      Scope offer(Span::kOfferPacket);
      sender.offer_packet(0, packet);
    }
    const std::size_t n = gather(sender, 0, tx_frames, items);
    sent += timed(Span::kNetSend,
                  [&] { return tx->send_batch({items.data(), n}); });

    while (!receiver.complete()) {
      const std::size_t got = timed(
          Span::kNetRecv, [&] { return rx->recv_batch(rx_frames, rx_peers); });
      if (got == 0) break;
      sender_at_rx = rx_peers[0];
      for (std::size_t i = 0; i < got && !receiver.complete(); ++i) {
        if (capture != nullptr) {
          capture->take(rx_frames[i].data(), rx_frames[i].size());
        }
        Scope handle(Span::kHandleFrame);
        receiver.handle_frame(0, rx_frames[i].bytes());
        ++round_frames;
      }
    }
    end_round();
  }

  bool ok = receiver.complete();
  if (ok) {
    ok = timed(Span::kFinishAndVerify, [&] {
      return receiver.protocol()->finish_and_verify(content_seed);
    });
    ok = ok && timed(Span::kHashVerify, [&] {
           return hash_decoded(sink.decoder()) == expected_hash;
         });
  }
  end_round();
  const double verified_at = seconds_since(t0);

  // Close the loop: the completion kAck crosses the socket back, and the
  // receiver re-announces on tick until the sender has it.
  for (session::Instant now = 1;
       ok && !sender.peer_completed() && now <= kMaxAckTicks; ++now) {
    const std::size_t n = gather(receiver, sender_at_rx, tx_frames, items);
    if (n > 0) {
      Scope send(Span::kNetSend);
      rx->send_batch({items.data(), n});
    }
    for (;;) {
      const std::size_t got = timed(
          Span::kNetRecv, [&] { return tx->recv_batch(rx_frames, rx_peers); });
      if (got == 0) break;
      for (std::size_t i = 0; i < got; ++i) {
        Scope handle(Span::kHandleFrame);
        sender.handle_frame(0, rx_frames[i].bytes());
      }
    }
    if (!sender.peer_completed()) {
      Scope tick(Span::kTick);
      receiver.tick(now);
    }
  }
  r.loop_s = seconds_since(t0);
  r.cpu_s = process_cpu_s() - cpu0;
  r.allocs = heap_allocations() - allocs0;

  if (ok && sender.peer_completed()) {
    r.verified = 1;
    r.completion_s.push_back(verified_at);
    r.completion_round.push_back(static_cast<std::uint32_t>(r.round_s.size()));
    r.wall_s = verified_at;
  }

  for (const session::Endpoint* e : {&sender, &receiver}) {
    r.wire_bytes_received += e->stats().bytes_received;
    r.frames_received += e->stats().frames_received;
    add_session_counts(r.counts, e->stats());
  }
  r.counts["useful_k"] = kBlocks;
  r.counts["decode_control_ops"] =
      static_cast<double>(sink.decode_ops().control_total());
  add_udp_counts(r.counts, tx->stats());
  add_udp_counts(r.counts, rx->stats());

  // Datagrams still queued at either socket were not dropped; drain them
  // before counting the kernel's drops.
  std::uint64_t leftover = 0;
  for (UdpTransport* s : {rx.get(), tx.get()}) {
    while (const std::size_t got = s->recv_batch(rx_frames, rx_peers)) {
      leftover += got;
    }
  }
  r.counts["udp_socket_drops"] = static_cast<double>(
      r.counts["udp_frames_sent"] - r.counts["udp_frames_received"] -
      static_cast<double>(leftover));
  return r;
}

}  // namespace e2e
