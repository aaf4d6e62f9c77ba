#include "cache/harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/fetch.hpp"
#include "common/check.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "dissemination/timer_wheel.hpp"
#include "harness/loopback.hpp"
#include "lt/bp_decoder.hpp"
#include "lt/lt_encoder.hpp"
#include "session/endpoint.hpp"
#include "store/content_store.hpp"
#include "stream/stream_source.hpp"
#include "wire/frame.hpp"

namespace ltnc::cache {
namespace {

// Metric names shared by the drivers and examples/edge_cache's --prom
// exposition; the latency histogram carries its tick unit in the name.
constexpr const char* kRequestsName = "ltnc_cache_requests_total";
constexpr const char* kFullHitsName = "ltnc_cache_full_hits_total";
constexpr const char* kPartialHitsName = "ltnc_cache_partial_hits_total";
constexpr const char* kMissesName = "ltnc_cache_misses_total";
constexpr const char* kEdgeSymbolsName = "ltnc_cache_edge_symbols_total";
constexpr const char* kSourceSymbolsName = "ltnc_cache_source_symbols_total";
constexpr const char* kBackhaulName = "ltnc_cache_backhaul_bytes_total";
constexpr const char* kFillName = "ltnc_cache_fill_bytes_total";
constexpr const char* kEvictionsName = "ltnc_cache_evicted_entries_total";

/// Seed perturbation for the canonical placement stream of a content, so
/// fill symbols and request-phase source symbols never collide draw-for-
/// draw. The same stream at every capacity makes placements nested:
/// a bigger cache stores a superset of a smaller one's symbols, which is
/// what makes the hit-rate and offload curves monotone by construction.
constexpr std::uint64_t kFillSalt = 0x5851f42d4c957f2dULL;

struct Instruments {
  telemetry::Histogram* latency = nullptr;
  telemetry::Counter* requests = nullptr;
  telemetry::Counter* full_hits = nullptr;
  telemetry::Counter* partial_hits = nullptr;
  telemetry::Counter* misses = nullptr;
  telemetry::Counter* edge_symbols = nullptr;
  telemetry::Counter* source_symbols = nullptr;
  telemetry::Counter* backhaul_bytes = nullptr;
  telemetry::Counter* fill_bytes = nullptr;
  telemetry::Counter* evictions = nullptr;
};

Instruments make_instruments(telemetry::Registry& registry,
                             const char* latency_name) {
  Instruments inst;
  inst.latency = &registry.histogram(latency_name);
  inst.requests = &registry.counter(kRequestsName);
  inst.full_hits = &registry.counter(kFullHitsName);
  inst.partial_hits = &registry.counter(kPartialHitsName);
  inst.misses = &registry.counter(kMissesName);
  inst.edge_symbols = &registry.counter(kEdgeSymbolsName);
  inst.source_symbols = &registry.counter(kSourceSymbolsName);
  inst.backhaul_bytes = &registry.counter(kBackhaulName);
  inst.fill_bytes = &registry.counter(kFillName);
  inst.evictions = &registry.counter(kEvictionsName);
  return inst;
}

void fold_outcome(CacheRunStats& out, const Instruments& inst,
                  const FetchOutcome& oc, bool head) {
  ++out.requests;
  inst.requests->add(1);
  if (oc.completed && oc.verified) {
    ++out.completed;
  } else {
    ++out.failed;
    if (oc.completed) ++out.verify_failures;
  }
  if (oc.full_hit()) {
    ++out.full_hits;
    inst.full_hits->add(1);
  } else if (oc.partial_hit()) {
    ++out.partial_hits;
    inst.partial_hits->add(1);
  } else {
    ++out.misses;
    inst.misses->add(1);
  }
  if (head) {
    ++out.head_requests;
    if (oc.full_hit()) ++out.head_full_hits;
  }
  out.symbols_from_edge += oc.symbols_from_edge;
  out.symbols_from_source += oc.symbols_from_source;
  inst.edge_symbols->add(oc.symbols_from_edge);
  inst.source_symbols->add(oc.symbols_from_source);
  inst.latency->record(static_cast<std::uint64_t>(oc.latency));
}

void fold_cache(CacheRunStats& out, const EdgeCache& cache,
                const Instruments& inst) {
  out.evicted_entries = cache.stats().evicted_entries;
  out.evicted_symbols = cache.stats().evicted_symbols;
  out.cache_bytes_used = cache.bytes_used();
  out.cache_capacity = cache.capacity_bytes();
  inst.evictions->add(cache.stats().evicted_entries);
}

/// Proactive placement of one content: admits symbols from the content's
/// canonical fill stream until the cache stops wanting them (sealed or at
/// quota). The attempt cap only bounds degenerate cases where the shadow
/// decoder keeps rejecting duplicates near completion.
void fill_one(EdgeCache& cache, ContentId id, std::size_t k,
              std::size_t payload_bytes, std::uint64_t content_seed,
              CacheRunStats* out, const Instruments* inst) {
  if (!cache.wants_symbols(id)) return;
  const auto account = [&](const CodedPacket& packet) {
    const std::uint64_t bytes = packet.wire_bytes();
    if (out != nullptr) {
      ++out->fill_symbols;
      out->fill_bytes += bytes;
    }
    if (inst != nullptr) inst->fill_bytes->add(bytes);
  };
  if (cache.quota(id) >= k) {
    // A full allocation is shipped in systematic form: k natives seal the
    // entry by construction (BP trivially completes), so a full copy
    // never pays the LT decode overhead in cache bytes and never strands
    // an entry at quota with a stuck peeling process.
    const std::vector<Payload> natives =
        lt::make_native_payloads(k, payload_bytes, content_seed);
    for (std::size_t i = 0; i < k && cache.wants_symbols(id); ++i) {
      const CodedPacket packet = CodedPacket::native(k, i, natives[i]);
      if (cache.admit(id, packet)) account(packet);
    }
    return;
  }
  lt::LtEncoder encoder(
      lt::make_native_payloads(k, payload_bytes, content_seed));
  Rng rng(content_seed ^ kFillSalt);
  const std::size_t cap = cache.full_symbol_cap(k) * 4;
  for (std::size_t attempt = 0;
       attempt < cap && cache.wants_symbols(id); ++attempt) {
    const CodedPacket packet = encoder.encode(rng);
    if (!cache.admit(id, packet)) continue;
    account(packet);
  }
}

void announce_all(EdgeCache& cache, const Catalog& catalog) {
  for (std::size_t slot = 0; slot < catalog.size(); ++slot) {
    cache.announce(catalog.id_of(slot), catalog.config().k,
                   catalog.config().symbol_bytes, catalog.weight_of(slot));
  }
}

/// plan() + refill every slot — the placement step, run at startup and
/// re-run when catalog churn moves weights or replaces contents. Iterated:
/// entries that seal below their planned quota release the difference on
/// the next plan() (which charges sealed sets their actual bytes), so the
/// budget waterfalls to still-hungry entries until no admission happens.
void place_all(EdgeCache& cache, const Catalog& catalog, CacheRunStats* out,
               const Instruments* inst) {
  for (std::size_t slot = 0; slot < catalog.size(); ++slot) {
    cache.set_weight(catalog.id_of(slot), catalog.weight_of(slot));
  }
  // Iterate until a pass admits nothing; the pass bound is a backstop
  // against a pathological drop-and-refill cycle (a capacity-rejected
  // systematic refill re-promoted every plan), not the usual exit.
  for (int pass = 0; pass < 64; ++pass) {
    cache.plan();
    const std::uint64_t before = cache.stats().admitted;
    for (std::size_t slot = 0; slot < catalog.size(); ++slot) {
      fill_one(cache, catalog.id_of(slot), catalog.config().k,
               catalog.config().symbol_bytes, catalog.seed_of(slot), out,
               inst);
    }
    if (cache.stats().admitted == before) break;
  }
}

bool verify_decode(const lt::BpDecoder& decoder, std::size_t k,
                   std::size_t payload_bytes, std::uint64_t content_seed) {
  if (decoder.payload_bytes() != payload_bytes) return false;
  for (std::size_t i = 0; i < k; ++i) {
    if (!matches_deterministic(decoder.native_payload(
                                   static_cast<NativeIndex>(i)),
                               content_seed, i)) {
      return false;
    }
  }
  return true;
}

/// The wire drivers' edge and source endpoints. Every catalog content is
/// registered on both (the edge serves its cache entry, the source
/// encodes the canonical content); content churn expires the retired id
/// on both and registers its replacement. Pinned in place: the churn
/// hook captures `this`.
class ServicePair {
 public:
  session::Endpoint edge;
  session::Endpoint source;
  EdgeCache& cache;
  std::size_t k;
  std::size_t bytes;

  ServicePair(Catalog& catalog, EdgeCache& edge_cache)
      : edge(node_config(catalog), std::make_unique<store::ContentStore>()),
        source(node_config(catalog), std::make_unique<store::ContentStore>()),
        cache(edge_cache),
        k(catalog.config().k),
        bytes(catalog.config().symbol_bytes) {
    for (std::size_t slot = 0; slot < catalog.size(); ++slot) {
      register_content(catalog.id_of(slot), catalog.seed_of(slot));
    }
    catalog.set_on_replace([this, &catalog](std::size_t slot,
                                            ContentId old_id,
                                            ContentId new_id) {
      edge.expire_content(old_id);
      source.expire_content(old_id);
      cache.forget(old_id);
      cache.announce(new_id, k, bytes, catalog.weight_of(slot));
      register_content(new_id, catalog.seed_of(slot));
    });
  }
  ServicePair(const ServicePair&) = delete;
  ServicePair& operator=(const ServicePair&) = delete;

  void tick(Instant now) {
    edge.tick(now);
    source.tick(now);
  }

  /// Edge and backhaul wire bytes: everything each endpoint sent.
  void fold(CacheRunStats& out, const Instruments& inst) const {
    out.edge_bytes = edge.stats().bytes_sent;
    out.backhaul_bytes = source.stats().bytes_sent;
    inst.backhaul_bytes->add(out.backhaul_bytes);
  }

 private:
  static session::EndpointConfig node_config(const Catalog& catalog) {
    session::EndpointConfig cfg;
    cfg.feedback = session::FeedbackMode::kNone;
    cfg.expired_ring = std::max<std::size_t>(128, 4 * catalog.size());
    return cfg;
  }

  void register_content(ContentId id, std::uint64_t seed) {
    store::ContentConfig cc;
    cc.id = id;
    cc.k = k;
    cc.payload_bytes = bytes;
    edge.contents().register_content(
        cc, std::make_unique<CacheEntryProtocol>(cache, id));
    source.contents().register_content(
        cc, std::make_unique<stream::LtSourceProtocol>(k, bytes, seed, false));
  }
};

}  // namespace

std::size_t working_set_bytes(const CatalogConfig& catalog,
                              const EdgeCacheConfig& cache) {
  EdgeCacheConfig unbounded = cache;
  unbounded.policy = Policy::kPopularity;
  unbounded.capacity_bytes = std::numeric_limits<std::size_t>::max() / 2;
  Catalog shape(catalog);  // no requests drawn, so no churn fires
  EdgeCache probe(unbounded);
  announce_all(probe, shape);
  place_all(probe, shape, nullptr, nullptr);
  return probe.bytes_used();
}

CacheRunStats run_event_cache(const EventCacheConfig& config) {
  const CacheScenario& sc = config.scenario;
  LTNC_CHECK_MSG(sc.users > 0 && sc.requests_per_user > 0,
                 "event cache run needs users and requests");
  LTNC_CHECK_MSG(config.symbols_per_tick > 0,
                 "event cache run needs a serving rate");
  telemetry::Registry local_registry;
  telemetry::Registry& registry =
      sc.registry != nullptr ? *sc.registry : local_registry;
  constexpr const char* kLatency = "ltnc_cache_fetch_latency_ticks";
  const Instruments inst = make_instruments(registry, kLatency);

  const std::size_t k = sc.catalog.k;
  const std::size_t bytes = sc.catalog.symbol_bytes;
  const bool proactive = sc.cache.policy == Policy::kPopularity;

  Catalog catalog(sc.catalog);
  EdgeCache cache(sc.cache);
  announce_all(cache, catalog);
  CacheRunStats out;
  out.users = sc.users;

  // Per-slot source encoders, built on first fallback and retired by
  // content churn (a replaced slot serves a different content).
  std::vector<std::unique_ptr<lt::LtEncoder>> encoders(catalog.size());
  catalog.set_on_replace([&](std::size_t slot, ContentId old_id,
                             ContentId new_id) {
    cache.forget(old_id);
    cache.announce(new_id, k, bytes, catalog.weight_of(slot));
    encoders[slot].reset();
  });

  if (proactive) place_all(cache, catalog, &out, &inst);
  std::uint64_t placed_version = catalog.version();

  std::vector<Rng> user_rng;
  user_rng.reserve(sc.users);
  Rng master(sc.seed);
  for (std::size_t u = 0; u < sc.users; ++u) user_rng.push_back(master.fork());
  std::vector<std::size_t> remaining(sc.users, sc.requests_per_user);

  struct Ev {
    std::size_t user = 0;
  };
  dissem::TimerWheel<Ev> wheel;
  for (std::size_t u = 0; u < sc.users; ++u) {
    wheel.schedule(u % 64, Ev{u});  // stagger request arrivals
  }

  while (auto ev = wheel.pop_next()) {
    const Instant now = wheel.now();
    const std::size_t u = ev->user;
    const std::size_t slot = catalog.next_request(user_rng[u]);
    if (proactive && placed_version != catalog.version()) {
      place_all(cache, catalog, &out, &inst);  // churn moved the catalog
      placed_version = catalog.version();
    }
    const ContentId id = catalog.id_of(slot);
    const std::uint64_t seed = catalog.seed_of(slot);
    const bool head = catalog.in_head(id);
    Rng req_rng = user_rng[u].fork();

    const std::size_t held = cache.begin_request(id);
    lt::BpDecoder decoder(k, bytes);
    FetchOutcome oc;
    oc.id = id;

    // Edge phase: the cache replays its stored set, cycling on loss
    // (simple ARQ) until the user holds every distinct stored symbol,
    // the decode completes, or the retry budget runs out.
    std::size_t sent_edge = 0;
    if (held > 0) {
      const std::vector<CodedPacket>& stored = *cache.symbols(id);
      const std::size_t budget = 2 * held + 8;
      std::size_t distinct = 0;
      for (std::size_t i = 0;
           !decoder.complete() && distinct < held && sent_edge < budget;
           ++i) {
        const CodedPacket& pkt = stored[i % held];
        ++sent_edge;
        out.edge_bytes += pkt.wire_bytes();
        if (req_rng.chance(sc.loss_rate)) continue;
        ++oc.symbols_from_edge;
        if (decoder.receive(pkt) != lt::ReceiveResult::kDuplicate) ++distinct;
      }
    }

    // Source fallback over the backhaul; the edge sits on this path
    // (upstream of last-hop loss), so reactive policies absorb it.
    std::size_t sent_source = 0;
    if (!decoder.complete()) {
      if (encoders[slot] == nullptr) {
        encoders[slot] = std::make_unique<lt::LtEncoder>(
            lt::make_native_payloads(k, bytes, seed));
      }
      const std::size_t cap = 30 * k;
      while (!decoder.complete() && sent_source < cap) {
        const CodedPacket pkt = encoders[slot]->encode(req_rng);
        ++sent_source;
        const std::uint64_t wire = pkt.wire_bytes();
        out.backhaul_bytes += wire;
        inst.backhaul_bytes->add(wire);
        if (!proactive) cache.admit(id, pkt);
        if (req_rng.chance(sc.loss_rate)) continue;
        ++oc.symbols_from_source;
        decoder.receive(pkt);
      }
    }

    oc.completed = decoder.complete();
    oc.verified = oc.completed && verify_decode(decoder, k, bytes, seed);
    const Instant transfer = (sent_edge + sent_source +
                              config.symbols_per_tick - 1) /
                             config.symbols_per_tick;
    oc.latency = config.edge_rtt +
                 (sent_source > 0 ? config.source_rtt : 0) + transfer;
    fold_outcome(out, inst, oc, head);

    if (--remaining[u] > 0) {
      wheel.schedule(now + oc.latency + config.think_ticks, Ev{u});
    }
  }

  out.replacements = catalog.replacements();
  out.duration_ticks = wheel.now();
  fold_cache(out, cache, inst);
  harness::latency_quantiles(registry, kLatency).store_into(out);
  return out;
}

CacheRunStats run_sim_cache(const SimCacheConfig& config) {
  const CacheScenario& sc = config.scenario;
  LTNC_CHECK_MSG(sc.users > 0 && sc.requests_per_user > 0,
                 "sim cache run needs users and requests");
  telemetry::Registry local_registry;
  telemetry::Registry& registry =
      sc.registry != nullptr ? *sc.registry : local_registry;
  constexpr const char* kLatency = "ltnc_cache_fetch_latency_ticks";
  const Instruments inst = make_instruments(registry, kLatency);

  const std::size_t k = sc.catalog.k;
  const std::size_t bytes = sc.catalog.symbol_bytes;
  const bool proactive = sc.cache.policy == Policy::kPopularity;
  const auto source_peer = static_cast<session::PeerId>(sc.users);

  Catalog catalog(sc.catalog);
  EdgeCache cache(sc.cache);
  announce_all(cache, catalog);
  CacheRunStats out;
  out.users = sc.users;

  ServicePair services(catalog, cache);
  session::Endpoint& edge = services.edge;
  session::Endpoint& source = services.source;

  if (proactive) place_all(cache, catalog, &out, &inst);
  std::uint64_t placed_version = catalog.version();

  std::vector<std::unique_ptr<net::SimChannel>> edge_ch;
  std::vector<std::unique_ptr<net::SimChannel>> src_ch;
  std::vector<std::unique_ptr<FetchClient>> clients;
  session::EndpointConfig client_cfg;
  client_cfg.feedback = session::FeedbackMode::kNone;
  for (std::size_t u = 0; u < sc.users; ++u) {
    net::SimChannelConfig ch = config.channel;
    ch.loss_rate = sc.loss_rate;
    ch.seed = sc.seed + 0x9e3779b97f4a7c15ULL * (2 * u + 1);
    edge_ch.push_back(std::make_unique<net::SimChannel>(ch));
    ch.seed = sc.seed + 0x9e3779b97f4a7c15ULL * (2 * u + 2);
    src_ch.push_back(std::make_unique<net::SimChannel>(ch));
    clients.push_back(std::make_unique<FetchClient>(client_cfg));
  }

  struct UserState {
    Rng rng{0};
    std::size_t remaining = 0;
    Instant idle_until = 0;
    bool active = false;
    ContentId id = 0;
    bool head = false;
    std::size_t edge_budget = 0;
    bool source_phase = false;
    std::size_t source_pushed = 0;
    Instant started = 0;
  };
  std::vector<UserState> users(sc.users);
  Rng master(sc.seed);
  for (std::size_t u = 0; u < sc.users; ++u) {
    users[u].rng = master.fork();
    users[u].remaining = sc.requests_per_user;
    users[u].idle_until = static_cast<Instant>(u % 16);
  }
  Rng serve_rng(sc.seed ^ 0x6a09e667f3bcc909ULL);
  Rng source_rng(sc.seed ^ 0xbb67ae8584caa73bULL);

  wire::Frame frame;
  const std::size_t source_cap = 30 * k;
  const Instant horizon =
      static_cast<Instant>(sc.requests_per_user) *
          (config.request_timeout + config.think_ticks + 16) +
      4096;
  Instant t = 0;
  for (;; ++t) {
    LTNC_CHECK_MSG(t <= horizon, "sim cache run failed to converge");
    bool all_done = true;
    for (const UserState& st : users) {
      if (st.active || st.remaining > 0) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    services.tick(t);
    if (proactive && placed_version != catalog.version()) {
      place_all(cache, catalog, &out, &inst);
      placed_version = catalog.version();
    }

    for (std::size_t u = 0; u < sc.users; ++u) {
      UserState& st = users[u];
      if (!st.active) {
        if (st.remaining == 0 || t < st.idle_until) continue;
        const std::size_t slot = catalog.next_request(st.rng);
        st.id = catalog.id_of(slot);
        st.head = catalog.in_head(st.id);
        const std::size_t held = cache.begin_request(st.id);
        st.edge_budget = held > 0 ? 2 * held + 8 : 0;
        st.source_phase = held == 0;
        st.source_pushed = 0;
        st.started = t;
        clients[u]->open(st.id, k, bytes, catalog.seed_of(slot), t);
        st.active = true;
      }
      if (!st.source_phase) {
        for (std::size_t i = 0;
             i < config.pushes_per_tick && st.edge_budget > 0; ++i) {
          if (!edge.start_transfer(static_cast<session::PeerId>(u), st.id,
                                   serve_rng)) {
            break;
          }
          --st.edge_budget;
        }
        // Fall back only after the edge link drains, so a loss-free
        // decodable serve never touches the source.
        if (st.edge_budget == 0 && edge_ch[u]->pending() == 0 &&
            !clients[u]->complete()) {
          st.source_phase = true;
        }
      } else if (st.source_pushed < source_cap) {
        for (std::size_t i = 0; i < config.pushes_per_tick; ++i) {
          if (!source.start_transfer(static_cast<session::PeerId>(u), st.id,
                                     source_rng)) {
            break;
          }
          ++st.source_pushed;
        }
      }
    }

    session::PeerId dest = 0;
    while (edge.poll_transmit(dest, frame)) {
      edge_ch[dest]->send(frame.bytes());
    }
    while (source.poll_transmit(dest, frame)) {
      // The edge is on the source→user path: reactive policies absorb
      // the relayed symbols (pre-loss) as they pass through.
      if (!proactive) edge.handle_frame(source_peer, frame.bytes());
      src_ch[dest]->send(frame.bytes());
    }

    for (std::size_t u = 0; u < sc.users; ++u) {
      while (edge_ch[u]->recv(frame)) {
        clients[u]->ingest(false, frame.bytes(), t);
      }
      while (src_ch[u]->recv(frame)) {
        clients[u]->ingest(true, frame.bytes(), t);
      }
      UserState& st = users[u];
      if (!st.active) continue;
      const bool timed_out = t - st.started >= config.request_timeout;
      if (clients[u]->complete() || timed_out) {
        const FetchOutcome oc = clients[u]->finish(t);
        fold_outcome(out, inst, oc, st.head);
        st.active = false;
        --st.remaining;
        st.idle_until = t + config.think_ticks;
      }
    }
  }

  out.replacements = catalog.replacements();
  out.duration_ticks = t;
  services.fold(out, inst);
  fold_cache(out, cache, inst);
  harness::latency_quantiles(registry, kLatency).store_into(out);
  return out;
}

CacheRunStats run_udp_cache(const UdpCacheConfig& config) {
  const CacheScenario& sc = config.scenario;
  LTNC_CHECK_MSG(sc.users > 0 && sc.requests_per_user > 0,
                 "udp cache run needs users and requests");
  telemetry::Registry local_registry;
  telemetry::Registry& registry =
      sc.registry != nullptr ? *sc.registry : local_registry;
  constexpr const char* kLatency = "ltnc_cache_fetch_latency_us";
  const Instruments inst = make_instruments(registry, kLatency);

  const std::size_t k = sc.catalog.k;
  const std::size_t bytes = sc.catalog.symbol_bytes;
  const bool proactive = sc.cache.policy == Policy::kPopularity;
  const auto source_peer = static_cast<session::PeerId>(sc.users);

  Catalog catalog(sc.catalog);
  EdgeCache cache(sc.cache);
  announce_all(cache, catalog);
  CacheRunStats out;
  out.users = sc.users;

  // Client u is user u's socket; service 0 is the edge and service 1 the
  // source, which is FetchClient's tier contract (peer 1 = source).
  std::string error;
  std::optional<harness::Loopback> net =
      harness::open_loopback(sc.users, 2, &error);
  LTNC_CHECK_MSG(net.has_value(), "udp cache: loopback bind failed");

  ServicePair services(catalog, cache);
  session::Endpoint& edge = services.edge;
  session::Endpoint& source = services.source;
  if (proactive) place_all(cache, catalog, &out, &inst);
  std::uint64_t placed_version = catalog.version();

  // Request handshake per user, over shared memory (the "control plane"
  // a real deployment would put in the request protocol): 0 idle →
  // 1 user wants a request → 2 service granted (content fields valid) →
  // 3 user finished the request → … → 4 user done for good.
  struct UserCtl {
    std::atomic<std::uint32_t> state{0};
    ContentId id = 0;
    std::uint64_t seed = 0;
  };
  std::vector<std::unique_ptr<UserCtl>> ctl;
  for (std::size_t u = 0; u < sc.users; ++u) {
    ctl.push_back(std::make_unique<UserCtl>());
  }
  std::vector<std::vector<FetchOutcome>> outcomes(sc.users);
  std::vector<std::vector<bool>> heads(sc.users);
  std::atomic<bool> abort{false};
  const harness::MicrosClock now_us;

  harness::ThreadGroup threads;
  for (std::size_t u = 0; u < sc.users; ++u) {
    threads.spawn([&, u] {
      session::EndpointConfig client_cfg;
      client_cfg.feedback = session::FeedbackMode::kNone;
      FetchClient client(client_cfg);
      harness::BatchIo io;
      UserCtl& me = *ctl[u];
      std::vector<FetchOutcome> local;
      local.reserve(sc.requests_per_user);
      for (std::size_t r = 0; r < sc.requests_per_user; ++r) {
        me.state.store(1, std::memory_order_release);
        while (me.state.load(std::memory_order_acquire) != 2 &&
               !abort.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        if (abort.load(std::memory_order_relaxed)) break;
        client.open(me.id, k, bytes, me.seed, now_us());
        const Instant deadline = now_us() + config.request_timeout_us;
        while (!client.complete() && now_us() < deadline &&
               !abort.load(std::memory_order_relaxed)) {
          const std::size_t n = io.receive(
              *net->clients[u],
              [&](harness::PeerIndex peer, wire::Frame& frame) {
                client.ingest(peer == 1, frame.bytes(), now_us());
              });
          if (n == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
        local.push_back(client.finish(now_us()));
        me.state.store(3, std::memory_order_release);
      }
      outcomes[u] = std::move(local);
      me.state.store(4, std::memory_order_release);
    });
  }

  // The calling thread is the service: it grants requests, serves edge
  // symbols, and streams source fallback in small batches (the user's
  // completion flips state to 3 and stops the stream, so overshoot is
  // bounded by one batch of frames in flight).
  struct Job {
    bool active = false;
    ContentId id = 0;
    std::size_t edge_remaining = 0;
    std::size_t source_budget = 0;
    Instant source_at = 0;  ///< no source frames before this instant
  };
  std::vector<Job> jobs(sc.users);
  Rng svc_rng(sc.seed);
  Rng serve_rng(sc.seed ^ 0x6a09e667f3bcc909ULL);
  Rng source_rng(sc.seed ^ 0xbb67ae8584caa73bULL);
  harness::BatchIo io;
  // The edge sits on the source→user path: reactive policies absorb the
  // relayed symbols as they pass through.
  const auto absorb = [&](session::PeerId, const wire::Frame& frame) {
    if (!proactive) edge.handle_frame(source_peer, frame.bytes());
    return true;
  };
  const Instant horizon =
      static_cast<Instant>(sc.requests_per_user) *
          (config.request_timeout_us + 200'000) +
      2'000'000;

  for (;;) {
    bool all_done = true;
    for (std::size_t u = 0; u < sc.users; ++u) {
      if (ctl[u]->state.load(std::memory_order_acquire) != 4) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    const Instant now = now_us();
    if (now > horizon) {
      abort.store(true, std::memory_order_relaxed);
      break;
    }
    services.tick(now);
    if (proactive && placed_version != catalog.version()) {
      place_all(cache, catalog, &out, &inst);
      placed_version = catalog.version();
    }

    bool progressed = false;
    for (std::size_t u = 0; u < sc.users; ++u) {
      UserCtl& uc = *ctl[u];
      const std::uint32_t state = uc.state.load(std::memory_order_acquire);
      if (state == 1) {
        const std::size_t slot = catalog.next_request(svc_rng);
        uc.id = catalog.id_of(slot);
        uc.seed = catalog.seed_of(slot);
        heads[u].push_back(catalog.in_head(uc.id));
        const std::size_t held = cache.begin_request(uc.id);
        jobs[u] = Job{true, uc.id, held > 0 ? 2 * held + 8 : 0, 30 * k,
                      held > 0 ? now + config.source_grace_us : now};
        uc.state.store(2, std::memory_order_release);
        progressed = true;
        continue;
      }
      if (state == 3 || state == 4) {
        jobs[u].active = false;
        continue;
      }
      Job& job = jobs[u];
      if (state != 2 || !job.active) continue;
      const auto peer = static_cast<session::PeerId>(u);
      if (job.edge_remaining > 0) {
        const std::size_t n = std::min(config.batch, job.edge_remaining);
        for (std::size_t i = 0; i < n; ++i) {
          if (!edge.start_transfer(peer, job.id, serve_rng)) break;
          --job.edge_remaining;
          progressed = true;
        }
      } else if (job.source_budget > 0 && now >= job.source_at) {
        const std::size_t n = std::min(config.batch, job.source_budget);
        for (std::size_t i = 0; i < n; ++i) {
          if (!source.start_transfer(peer, job.id, source_rng)) break;
          --job.source_budget;
          progressed = true;
        }
        job.source_at = now + config.source_pace_us;
      }
    }
    const std::size_t sent_edge = io.transmit(*net->services[0], edge);
    const std::size_t sent_src = io.transmit(*net->services[1], source, absorb);
    if (!progressed && sent_edge == 0 && sent_src == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  threads.join();

  for (std::size_t u = 0; u < sc.users; ++u) {
    for (std::size_t r = 0; r < outcomes[u].size(); ++r) {
      const bool head = r < heads[u].size() && heads[u][r];
      fold_outcome(out, inst, outcomes[u][r], head);
    }
  }
  out.replacements = catalog.replacements();
  out.duration_ticks = now_us();
  services.fold(out, inst);
  fold_cache(out, cache, inst);
  harness::latency_quantiles(registry, kLatency).store_into(out);
  return out;
}

metrics::RunRecord cache_run_record(const std::string& section,
                                    double capacity_frac,
                                    const CacheScenario& sc,
                                    const CacheRunStats& r, double seconds) {
  metrics::RunRecord rec;
  rec.set("section", section);
  rec.set("policy", std::string(policy_name(sc.cache.policy)));
  rec.set("capacity_frac", capacity_frac);
  rec.set("capacity_bytes",
          static_cast<std::uint64_t>(sc.cache.capacity_bytes));
  rec.set("contents", static_cast<std::uint64_t>(sc.catalog.contents));
  rec.set("alpha", sc.catalog.alpha);
  rec.set("k", static_cast<std::uint64_t>(sc.catalog.k));
  rec.set("symbol_bytes", static_cast<std::uint64_t>(sc.catalog.symbol_bytes));
  rec.set("users", static_cast<std::uint64_t>(r.users));
  rec.set("requests", r.requests);
  rec.set("completed", r.completed);
  rec.set("failed", r.failed);
  rec.set("verify_failures", r.verify_failures);
  rec.set("full_hits", r.full_hits);
  rec.set("partial_hits", r.partial_hits);
  rec.set("misses", r.misses);
  rec.set("hit_rate", r.hit_rate());
  rec.set("full_hit_rate", r.full_hit_rate());
  rec.set("head_hit_rate", r.head_hit_rate());
  rec.set("offload", r.offload());
  rec.set("symbols_from_edge", r.symbols_from_edge);
  rec.set("symbols_from_source", r.symbols_from_source);
  rec.set("edge_bytes", r.edge_bytes);
  rec.set("backhaul_bytes", r.backhaul_bytes);
  rec.set("fill_bytes", r.fill_bytes);
  rec.set("evicted_entries", r.evicted_entries);
  rec.set("replacements", r.replacements);
  rec.set("cache_bytes_used", r.cache_bytes_used);
  rec.set("latency_p50", r.latency_p50);
  rec.set("latency_p99", r.latency_p99);
  rec.set("latency_samples", r.latency_samples);
  rec.set("seconds", seconds);
  return rec;
}

}  // namespace ltnc::cache
