// The three closed-loop transfer workloads and what one repetition of
// each reports. A repetition builds its own endpoints, sockets and
// threads (timed as set-up), runs one transfer until every receiver has
// decoded and verified its content and every sender has seen the
// completion, and tears everything down again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/payload.hpp"
#include "lt/bp_decoder.hpp"
#include "net/udp_transport.hpp"
#include "session/endpoint.hpp"

namespace e2e {

struct RepResult {
  std::uint64_t input_set = 0;  ///< which seed-derived inputs it ran
  double setup_s = 0.0;  ///< natives, stores, endpoints, sockets, threads
  double wall_s = 0.0;   ///< first send → last verified decode
  double loop_s = 0.0;   ///< whole transfer loop, completion acks included
  double cpu_s = 0.0;    ///< process user+sys CPU over the transfer loop
  std::uint64_t receivers = 0;  ///< transfers attempted
  std::uint64_t verified = 0;   ///< decoded, library-verified, hash-equal
  std::uint64_t content_bytes = 0;  ///< per receiver
  std::uint64_t wire_bytes_received = 0;  ///< by every endpoint
  std::uint64_t frames_received = 0;      ///< by every endpoint
  std::uint64_t allocs = 0;  ///< global operator new calls in the loop
  std::vector<double> completion_s;  ///< per verified receiver
  /// Single-threaded workloads only (empty otherwise), so run.py can
  /// compose each round's fastest replay of an input set: the round in
  /// which each verified receiver decoded (1-based, parallel to
  /// completion_s), the wall and process CPU seconds of every round, and
  /// a fingerprint of the frames each round handled (replays of a set
  /// compose only when it matches).
  std::vector<std::uint32_t> completion_round;
  std::vector<double> round_s;
  std::vector<double> round_cpu_s;
  std::uint64_t round_digest = 0;
  /// Raw per-layer counters (summed by run.py into the per-layer ratios).
  std::map<std::string, double> counts;
  /// Seed-determined counts that must repeat exactly on a replay of the
  /// same inputs (empty for the socket workloads, whose timing decides
  /// how many frames the kernel drops or batches).
  std::vector<std::uint64_t> det;
};

/// Data frames one receiver took in, kept for the handle_frame replay
/// split. A workload records into it only when handed one.
struct Capture {
  std::size_t k = 0;
  std::size_t payload_bytes = 0;
  std::vector<std::vector<std::uint8_t>> frames;

  void take(const std::uint8_t* data, std::size_t size) {
    frames.emplace_back(data, data + size);
  }
};

RepResult run_unicast_udp(std::uint64_t seed, Capture* capture);
RepResult run_swarm_sim(std::uint64_t seed, Capture* capture);
RepResult run_fanout_udp_sharded(std::uint64_t seed, Capture* capture);

/// Replays captured frames through wire::deserialize / serialize and
/// through fresh BP (LT sink) and LTNC protocols; ns per frame for each.
std::map<std::string, double> replay_split(const Capture& capture);

// --- helpers shared by the workloads --------------------------------------

double seconds_since(std::int64_t start_ns);
/// Process user + system CPU seconds (all threads).
double process_cpu_s();

/// FNV-1a 64 (word-wise) over the concatenated native payloads.
std::uint64_t hash_natives(const std::vector<ltnc::Payload>& natives);
/// The same fingerprint over a decoder's natives (which must be complete).
std::uint64_t hash_decoded(const ltnc::lt::BpDecoder& decoder);

/// Derives the seed of stream `stream` from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Opens a UDP socket on 127.0.0.1 (ephemeral port) whose default peer
/// is 127.0.0.1:`peer_port` (none when 0); throws when it cannot.
std::unique_ptr<ltnc::net::UdpTransport> open_loopback_socket(
    std::uint16_t peer_port);

/// Adds one endpoint's session counters into `counts`.
void add_session_counts(std::map<std::string, double>& counts,
                        const ltnc::session::SessionStats& stats);
/// Adds one socket's syscall tallies into `counts`.
void add_udp_counts(std::map<std::string, double>& counts,
                    const ltnc::net::UdpStats& stats);

}  // namespace e2e
