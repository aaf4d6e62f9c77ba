#include "harness/loopback.hpp"

namespace ltnc::harness {
namespace {

bool open_fleet(std::size_t count,
                std::vector<std::unique_ptr<net::UdpTransport>>& out,
                std::string* error) {
  net::UdpConfig cfg;
  cfg.bind_address = "127.0.0.1";
  for (std::size_t i = 0; i < count; ++i) {
    auto socket = net::UdpTransport::open(cfg, error);
    if (socket == nullptr) return false;
    out.push_back(std::move(socket));
  }
  return true;
}

/// Interns every socket of `remote` on `local`, in order; false if an
/// index comes back other than the socket's position.
bool intern_all(net::UdpTransport& local,
                const std::vector<std::unique_ptr<net::UdpTransport>>& remote,
                std::string* error) {
  for (std::size_t i = 0; i < remote.size(); ++i) {
    if (local.add_peer("127.0.0.1", remote[i]->local_port()) !=
        static_cast<PeerIndex>(i)) {
      if (error != nullptr) *error = "loopback peer interning out of order";
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<Loopback> open_loopback(std::size_t clients,
                                      std::size_t services,
                                      std::string* error) {
  Loopback net;
  if (!open_fleet(clients, net.clients, error) ||
      !open_fleet(services, net.services, error)) {
    return std::nullopt;
  }
  for (const auto& service : net.services) {
    if (!intern_all(*service, net.clients, error)) return std::nullopt;
  }
  for (const auto& client : net.clients) {
    if (!intern_all(*client, net.services, error)) return std::nullopt;
  }
  return net;
}

LatencyQuantiles latency_quantiles(const telemetry::Registry& registry,
                                   std::string_view name) {
  LatencyQuantiles q;
  const telemetry::Snapshot snap = registry.snapshot();
  if (const auto* h = snap.find_histogram(name)) {
    q.samples = h->count();
    q.p50 = h->quantile(0.50);
    q.p99 = h->quantile(0.99);
    q.p999 = h->quantile(0.999);
  }
  return q;
}

}  // namespace ltnc::harness
