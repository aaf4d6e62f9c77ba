// Session-layer demo: multi-content Endpoints driven over deliberately
// hostile SimChannels — loss, duplication and reordering injected on
// every link — with binary feedback, tick-driven retransmission and the
// token-bucket pacer throttling each node's swarm pushes.
//
//     source ──▶ alice ◀──▶ bob        (every arrow: a lossy SimChannel)
//
// Every endpoint serves TWO contents over the same links, interleaved by
// its SwarmScheduler (rarest-first, round-robin fallback):
//
//   content 1  a plain LTNC content of k blocks
//   content 2  a generationed content (3 generations × k blocks) — the
//              paper's §generations extension running over the session
//              layer, one independent LTNC instance per generation with
//              per-generation veto handshakes and completion tracking
//
// A protocol-less source endpoint offers encoded packets of both contents
// to alice; alice and bob gossip recoded packets at each other, the
// scheduler deciding per push slot which content (and, inside content 2,
// which generation) the slot carries. The application loop below is
// everything a transport glue has to do: move frames between
// poll_transmit() and handle_frame(), and call tick(now).
//
// Build & run:  ./build/examples/session_demo [k] [payload] [loss]
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "lt/lt_encoder.hpp"
#include "metrics/emitter.hpp"
#include "net/sim_channel.hpp"
#include "session/endpoint.hpp"
#include "store/content_store.hpp"

int main(int argc, char** argv) {
  using namespace ltnc;

  const std::size_t k = argc > 1 ? std::atoi(argv[1]) : 64;
  const std::size_t payload = argc > 2 ? std::atoi(argv[2]) : 256;
  const double loss = argc > 3 ? std::atof(argv[3]) : 0.2;
  constexpr std::uint64_t kPlainSeed = 77;
  constexpr std::uint64_t kGenSeed = 78;
  constexpr ContentId kPlainContent = 1;
  constexpr ContentId kGenContent = 2;
  constexpr std::size_t kGenerations = 3;

  session::EndpointConfig cfg;
  cfg.feedback = session::FeedbackMode::kBinary;
  cfg.response_timeout = 4;  // ticks before an advertise retransmits
  cfg.max_retries = 3;
  // Token-bucket pacer: at most one swarm push per tick on average, small
  // burst — a node serving many contents must not flood the link.
  cfg.pace_tokens_per_tick = 1.0;
  cfg.pace_burst = 4.0;

  const auto make_store = [&] {
    auto contents = std::make_unique<store::ContentStore>();
    store::ContentConfig plain;
    plain.id = kPlainContent;
    plain.k = k;
    plain.payload_bytes = payload;
    contents->register_content(plain);
    store::ContentConfig gen;
    gen.id = kGenContent;
    gen.k = k;  // blocks per generation
    gen.payload_bytes = payload;
    gen.generations = kGenerations;
    contents->register_content(gen);
    return contents;
  };

  // Endpoint ids double as peer ids: 0 = alice, 1 = bob, 2 = source.
  std::vector<std::unique_ptr<session::Endpoint>> endpoints;
  endpoints.push_back(std::make_unique<session::Endpoint>(cfg, make_store()));
  endpoints.push_back(std::make_unique<session::Endpoint>(cfg, make_store()));
  endpoints.push_back(std::make_unique<session::Endpoint>(
      cfg, std::make_unique<store::ContentStore>()));  // pure seeder

  lt::LtEncoder plain_source(lt::make_native_payloads(k, payload, kPlainSeed));
  core::GenerationConfig gen_cfg;
  gen_cfg.total_blocks = k * kGenerations;
  gen_cfg.generations = kGenerations;
  gen_cfg.payload_bytes = payload;
  store::GenerationedLtSource gen_source(gen_cfg, kGenSeed);
  Rng rng(1);

  // One hostile unidirectional channel per directed pair.
  net::SimChannelConfig ch;
  ch.loss_rate = loss;
  ch.duplicate_rate = 0.1;
  ch.reorder_rate = 0.2;
  std::vector<std::vector<std::unique_ptr<net::SimChannel>>> links(3);
  for (std::size_t from = 0; from < 3; ++from) {
    for (std::size_t to = 0; to < 3; ++to) {
      ch.seed = 100 + from * 3 + to;
      links[from].push_back(std::make_unique<net::SimChannel>(ch));
    }
  }

  wire::Frame frame;
  session::Instant now = 0;
  const session::Instant deadline = 200000;

  auto pump = [&] {
    // poll_transmit → channel → handle_frame, for every endpoint pair.
    for (std::size_t from = 0; from < 3; ++from) {
      session::PeerId to = 0;
      while (endpoints[from]->poll_transmit(to, frame)) {
        links[from][to]->send(frame.bytes());
      }
    }
    for (std::size_t from = 0; from < 3; ++from) {
      for (std::size_t to = 0; to < 3; ++to) {
        while (links[from][to]->recv(frame)) {
          endpoints[to]->handle_frame(static_cast<session::PeerId>(from),
                                      frame.bytes());
        }
      }
    }
  };

  // Each node drains its pacer bucket toward its gossip partner: the
  // scheduler picks the rarest content per slot, the bucket caps the
  // burst.
  auto swarm_push = [&](std::size_t self, session::PeerId peer) {
    while (const store::Content* content = endpoints[self]->next_push(peer)) {
      if (!endpoints[self]->start_transfer(peer, content->id(), rng)) break;
    }
  };

  while ((!endpoints[0]->complete() || !endpoints[1]->complete()) &&
         now < deadline) {
    ++now;
    // Offer slower than the retransmit timer (a fresh offer supersedes
    // the in-flight one), so lost advertises get their timer-driven
    // second chance instead of being papered over by the next offer.
    if (now % (cfg.response_timeout + 2) == 1) {
      // The source seeds alice with both contents, interleaved.
      endpoints[2]->offer_packet(0, kPlainContent, plain_source.encode(rng));
      const core::GenerationPacket gp = gen_source.next(rng);
      endpoints[2]->offer_packet(0, kGenContent, gp.generation, gp.packet);
    }
    swarm_push(0, 1);
    swarm_push(1, 0);
    pump();
    for (auto& ep : endpoints) ep->tick(now);
    pump();  // deliver what the tick retransmitted
  }

  const bool done = endpoints[0]->complete() && endpoints[1]->complete();
  bool verified = done;
  for (std::size_t i = 0; i < 2 && verified; ++i) {
    verified &= endpoints[i]->contents().find(kPlainContent)
                    ->finish_and_verify(kPlainSeed);
    verified &= endpoints[i]->contents().find(kGenContent)
                    ->finish_and_verify(kGenSeed);
  }

  std::cout << "k=" << k << " payload=" << payload << "B loss=" << loss
            << " dup=0.1 reorder=0.2 — 2 contents (plain + " << kGenerations
            << "-generation), "
            << (done ? "both endpoints complete" : "DID NOT COMPLETE")
            << " after " << now << " ticks, contents "
            << (verified ? "verified byte-exact" : "NOT verified") << "\n";
  for (std::size_t i = 0; i < 2; ++i) {
    const store::Content* gen = endpoints[i]->contents().find(kGenContent);
    std::cout << (i == 0 ? "alice" : "bob") << " generations complete: "
              << gen->completed_generation_count() << "/" << kGenerations
              << "\n";
  }
  std::cout << "\n";

  std::vector<metrics::RunRecord> table;
  const char* names[] = {"alice", "bob", "source"};
  for (std::size_t i = 0; i < 3; ++i) {
    const session::SessionStats& s = endpoints[i]->stats();
    table.push_back({{"endpoint", names[i]},
                     {"offers", s.offers},
                     {"swarm picks", s.swarm_pushes},
                     {"pacer defers", s.pacer_deferrals},
                     {"adv rtx", s.advertise_retransmits},
                     {"vetoes rx", s.aborts_received},
                     {"data rx", s.data_delivered},
                     {"dup suppressed", s.duplicates_suppressed},
                     {"wire bytes", s.bytes_sent + s.bytes_received}});
  }
  metrics::write_table(std::cout, table);
  std::cout << "\nEvery frame above crossed a lossy channel carrying its "
               "content id; the scheduler interleaved both contents and "
               "the pacer capped each node's push bursts.\n";
  return done && verified ? 0 : 1;
}
