// swarm_sim — the paper's §IV setting over in-process links: one LT
// source and 100 LTNC Endpoints gossip by push with the binary-feedback
// handshake (advertise → abort/proceed → data) and 1 % aggressiveness.
// Every endpoint receives through its own seeded SimChannel with 5 %
// loss, and one thread drives a round: pushes, delivery until every
// inbox is empty, one tick per endpoint, delivery again. No syscalls, so
// the time goes to recoding, the handshake and LTNC decoding; the seed
// fixes every count exactly. The working set (k = 128 blocks of 1 KiB
// per node, ~50 MB resident) is kept small because the time of a larger
// one swings with how much of the shared last-level cache co-tenants
// leave it.

#include <stdexcept>

#include "lt/lt_encoder.hpp"
#include "net/sim_channel.hpp"
#include "session/protocols.hpp"
#include "trace.hpp"
#include "wire/codec.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace ltnc;

constexpr std::size_t kNodes = 100;
constexpr std::size_t kEndpoints = kNodes + 1;  // the source is the last
constexpr std::size_t kBlocks = 128;
constexpr std::size_t kBlockBytes = 1024;
constexpr double kLoss = 0.05;
constexpr double kAggressiveness = 0.01;
constexpr std::size_t kSourcePushesPerRound = 4;
constexpr std::size_t kInboxCapacity = 1024;
constexpr std::uint64_t kMaxRounds = 40 * kBlocks;
constexpr double kMaxSeconds = 60.0;

}  // namespace

RepResult run_swarm_sim(std::uint64_t seed, Capture* capture) {
  RepResult r;
  r.receivers = kNodes;
  r.content_bytes = kBlocks * kBlockBytes;

  const std::int64_t setup_start = now_ns();
  const std::uint64_t content_seed = derive_seed(seed, 0);
  std::vector<Payload> natives =
      lt::make_native_payloads(kBlocks, kBlockBytes, content_seed);
  const std::uint64_t expected_hash = hash_natives(natives);
  lt::LtEncoder source_encoder(std::move(natives));
  Rng rng(derive_seed(seed, 1));

  session::ProtocolParams params;
  params.k = kBlocks;
  params.payload_bytes = kBlockBytes;
  params.aggressiveness = kAggressiveness;
  session::EndpointConfig cfg;
  cfg.k = kBlocks;
  cfg.payload_bytes = kBlockBytes;
  cfg.feedback = session::FeedbackMode::kBinary;
  std::vector<std::unique_ptr<session::Endpoint>> eps;
  eps.reserve(kEndpoints);
  for (std::size_t n = 0; n < kNodes; ++n) {
    eps.push_back(std::make_unique<session::Endpoint>(
        cfg, session::make_node(session::Scheme::kLtnc, params)));
  }
  eps.push_back(std::make_unique<session::Endpoint>(cfg, nullptr));
  session::Endpoint& source = *eps.back();

  // One SimChannel per receiving endpoint, and beside it the sender of
  // every frame it holds, in order: the channel neither reorders nor
  // duplicates, and a frame it drops never enters its queue.
  std::vector<net::SimChannel> inbox;
  std::vector<std::vector<std::uint32_t>> senders(kEndpoints);
  inbox.reserve(kEndpoints);
  for (std::size_t i = 0; i < kEndpoints; ++i) {
    net::SimChannelConfig ch;
    ch.loss_rate = kLoss;
    ch.capacity = kInboxCapacity;
    ch.seed = derive_seed(seed, 2 + i);
    inbox.emplace_back(ch);
    senders[i].reserve(kInboxCapacity);
  }
  std::vector<std::uint8_t> queued(kEndpoints, 0);
  std::vector<std::size_t> active;
  std::vector<std::size_t> work;
  active.reserve(kEndpoints);
  work.reserve(kEndpoints);
  wire::Frame frame;
  std::uint64_t round_frames = 0;  ///< frames handled in this round
  std::vector<std::uint8_t> done(kNodes, 0);
  std::vector<std::uint64_t> done_round(kNodes, 0);
  if (capture != nullptr) {
    capture->k = kBlocks;
    capture->payload_bytes = kBlockBytes;
  }
  r.setup_s = seconds_since(setup_start);

  // Moves everything endpoint `from` has queued into the inboxes.
  auto flush = [&](std::size_t from) {
    session::PeerId to = 0;
    while (eps[from]->has_pending_transmit() &&
           timed(Span::kPollTransmit,
                 [&] { return eps[from]->poll_transmit(to, frame); })) {
      const std::size_t held = inbox[to].pending();
      {
        Scope send(Span::kNetSend);
        inbox[to].send(frame.bytes());
      }
      if (inbox[to].pending() == held) continue;  // lost or tail-dropped
      senders[to].push_back(static_cast<std::uint32_t>(from));
      if (queued[to] == 0) {
        queued[to] = 1;
        active.push_back(to);
      }
    }
  };
  // Delivers until every inbox is empty (handshakes finish in-round).
  auto pump = [&] {
    for (std::size_t e = 0; e < kEndpoints; ++e) flush(e);
    while (!active.empty()) {
      work.clear();
      work.swap(active);
      for (const std::size_t to : work) {
        queued[to] = 0;
        for (const std::uint32_t from : senders[to]) {
          if (!timed(Span::kNetRecv, [&] { return inbox[to].recv(frame); })) {
            throw std::logic_error("swarm_sim: an inbox lost a queued frame");
          }
          wire::MessageType type{};
          if (capture != nullptr && to == 0 &&
              wire::peek_type(frame.bytes(), type) == wire::DecodeStatus::kOk &&
              type == wire::MessageType::kCodedPacket) {
            capture->take(frame.data(), frame.size());
          }
          Scope handle(Span::kHandleFrame);
          eps[to]->handle_frame(static_cast<session::PeerId>(from),
                                frame.bytes());
        }
        round_frames += senders[to].size();
        senders[to].clear();
        flush(to);
      }
    }
  };

  r.completion_s.reserve(kNodes);
  r.completion_round.reserve(kNodes);
  r.round_s.reserve(kMaxRounds);
  r.round_cpu_s.reserve(kMaxRounds);
  const std::uint64_t allocs0 = heap_allocations();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  std::int64_t round_start = t0;
  double round_cpu_start = cpu0;
  std::size_t n_done = 0;
  std::uint64_t round = 0;
  while (n_done < kNodes && round < kMaxRounds &&
         seconds_since(t0) < kMaxSeconds) {
    ++round;
    for (std::size_t i = 0; i < kSourcePushesPerRound; ++i) {
      const auto peer = static_cast<session::PeerId>(rng.uniform(kNodes));
      if (source.awaiting_feedback(peer, 0)) continue;
      const CodedPacket packet =
          timed(Span::kLtEncode, [&] { return source_encoder.encode(rng); });
      Scope offer(Span::kOfferPacket);
      source.offer_packet(peer, packet);
    }
    for (std::size_t n = 0; n < kNodes; ++n) {
      if (!eps[n]->can_push()) continue;
      auto peer = static_cast<session::PeerId>(rng.uniform(kNodes - 1));
      if (peer >= n) ++peer;
      Scope recode(Span::kCoreRecode);
      eps[n]->start_transfer(peer, rng);
    }
    pump();
    for (auto& ep : eps) {
      Scope tick(Span::kTick);
      ep->tick(round);
    }
    pump();

    for (std::size_t n = 0; n < kNodes; ++n) {
      if (done[n] != 0 || !eps[n]->complete()) continue;
      done[n] = 1;
      done_round[n] = round;
      ++n_done;
      const auto& node =
          static_cast<const session::LtncProtocol&>(*eps[n]->protocol());
      bool ok = timed(Span::kFinishAndVerify, [&] {
        return eps[n]->protocol()->finish_and_verify(content_seed);
      });
      ok = ok && timed(Span::kHashVerify, [&] {
             return hash_decoded(node.codec().decoder()) == expected_hash;
           });
      if (ok) {
        ++r.verified;
        r.completion_s.push_back(seconds_since(t0));
        r.completion_round.push_back(static_cast<std::uint32_t>(round));
      }
    }
    const std::int64_t round_end = now_ns();
    const double round_cpu_end = process_cpu_s();
    r.round_s.push_back(static_cast<double>(round_end - round_start) / 1e9);
    r.round_cpu_s.push_back(round_cpu_end - round_cpu_start);
    r.round_digest = derive_seed(r.round_digest, round_frames);
    round_start = round_end;
    round_cpu_start = round_cpu_end;
    round_frames = 0;
  }
  r.loop_s = seconds_since(t0);
  r.wall_s = r.loop_s;  // the loop ends at the last verified decode
  r.cpu_s = process_cpu_s() - cpu0;
  r.allocs = heap_allocations() - allocs0;

  OpCounters decode;
  OpCounters recode;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  for (std::size_t e = 0; e < kEndpoints; ++e) {
    const session::SessionStats& s = eps[e]->stats();
    r.wire_bytes_received += s.bytes_received;
    r.frames_received += s.frames_received;
    frames_sent += s.frames_sent;
    bytes_sent += s.bytes_sent;
    add_session_counts(r.counts, s);
    if (e < kNodes) {
      decode += eps[e]->protocol()->decode_ops();
      recode += eps[e]->protocol()->recode_ops();
    }
  }
  std::uint64_t loss_drops = 0;
  std::uint64_t overflow_drops = 0;
  for (const net::SimChannel& link : inbox) {
    loss_drops += link.stats().dropped_loss;
    overflow_drops += link.stats().dropped_overflow;
  }
  r.counts["useful_k"] = static_cast<double>(kBlocks * kNodes);
  r.counts["decode_control_ops"] = static_cast<double>(decode.control_total());
  r.counts["recode_control_ops"] = static_cast<double>(recode.control_total());
  r.counts["recode_invocations"] = static_cast<double>(recode.invocations);
  r.counts["sim_loss_drops"] = static_cast<double>(loss_drops);
  r.counts["sim_overflow_drops"] = static_cast<double>(overflow_drops);

  std::uint64_t rounds_digest = 0;
  for (const std::uint64_t d : done_round) {
    rounds_digest = derive_seed(rounds_digest, d);
  }
  r.det = {round,
           rounds_digest,
           frames_sent,
           bytes_sent,
           r.frames_received,
           r.wire_bytes_received,
           static_cast<std::uint64_t>(r.counts["data_delivered"]),
           static_cast<std::uint64_t>(r.counts["aborts_sent"]),
           decode.control_word_ops,
           decode.control_steps,
           decode.data_word_ops,
           recode.control_word_ops,
           recode.control_steps,
           recode.data_word_ops,
           recode.invocations,
           loss_drops,
           overflow_drops};
  return r;
}

}  // namespace e2e
