#include <sys/resource.h>

#include <stdexcept>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// FNV-1a over 64-bit words rather than bytes: the check runs inside the
// timed transfer, so it must stay small next to the decode it verifies.
void fnv_fold(std::uint64_t& h, const ltnc::Payload& p) {
  for (const std::uint64_t w : p.word_span()) {
    h ^= w;
    h *= kFnvPrime;
  }
}

}  // namespace

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::uint64_t hash_natives(const std::vector<ltnc::Payload>& natives) {
  std::uint64_t h = kFnvOffset;
  for (const ltnc::Payload& p : natives) fnv_fold(h, p);
  return h;
}

std::uint64_t hash_decoded(const ltnc::lt::BpDecoder& decoder) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < decoder.k(); ++i) {
    fnv_fold(h, decoder.native_payload(static_cast<ltnc::NativeIndex>(i)));
  }
  return h;
}

std::unique_ptr<ltnc::net::UdpTransport> open_loopback_socket(
    std::uint16_t peer_port) {
  ltnc::net::UdpConfig cfg;
  cfg.bind_address = "127.0.0.1";
  if (peer_port != 0) {
    cfg.peer_address = "127.0.0.1";
    cfg.peer_port = peer_port;
  }
  std::string error;
  auto socket = ltnc::net::UdpTransport::open(cfg, &error);
  if (socket == nullptr) {
    throw std::runtime_error("cannot open a loopback UDP socket: " + error);
  }
  return socket;
}

void add_session_counts(std::map<std::string, double>& counts,
                        const ltnc::session::SessionStats& s) {
  counts["data_delivered"] += static_cast<double>(s.data_delivered);
  counts["advertises_received"] += static_cast<double>(s.advertises_received);
  counts["aborts_sent"] += static_cast<double>(s.aborts_sent);
  counts["advertise_retransmits"] +=
      static_cast<double>(s.advertise_retransmits);
  counts["duplicates_suppressed"] +=
      static_cast<double>(s.duplicates_suppressed);
  counts["foreign_frames"] += static_cast<double>(s.foreign_frames);
}

void add_udp_counts(std::map<std::string, double>& counts,
                    const ltnc::net::UdpStats& s) {
  counts["udp_send_calls"] += static_cast<double>(s.send_calls);
  counts["udp_recv_calls"] += static_cast<double>(s.recv_calls);
  counts["udp_frames_sent"] += static_cast<double>(s.frames_sent);
  counts["udp_frames_received"] += static_cast<double>(s.frames_received);
  counts["udp_recv_would_block"] += static_cast<double>(s.recv_would_block);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace e2e
