// Replay split of session.handle_frame: one receiver's recorded data
// frames go again through the wire codec alone and through fresh
// protocols alone, so the time inside handle_frame can be divided into
// parsing, BP peeling (LT sink) and LTNC decoding.
#include <algorithm>
#include <optional>

#include "session/protocols.hpp"
#include "trace.hpp"
#include "wire/codec.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace ltnc;

constexpr int kPasses = 5;

/// Median over kPasses of run()'s ns per frame; prepare() runs untimed
/// before each pass.
template <typename Prepare, typename Run>
double ns_per_frame(std::size_t frames, Prepare&& prepare, Run&& run) {
  std::vector<double> samples;
  for (int pass = 0; pass < kPasses; ++pass) {
    prepare();
    const std::int64_t start = now_ns();
    run();
    samples.push_back(static_cast<double>(now_ns() - start) /
                      static_cast<double>(frames));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

std::map<std::string, double> replay_split(const Capture& capture) {
  std::map<std::string, double> out;
  // One content only: a multi-content receiver interleaves several, and
  // a protocol instance decodes one.
  std::vector<CodedPacket> packets;
  std::vector<std::span<const std::uint8_t>> frames;
  ContentId first = 0;
  for (const auto& bytes : capture.frames) {
    ContentId content = 0;
    CodedPacket packet;
    if (wire::deserialize(bytes, content, packet) != wire::DecodeStatus::kOk) {
      continue;
    }
    if (packets.empty()) first = content;
    if (content != first) continue;
    packets.push_back(std::move(packet));
    frames.emplace_back(bytes);
  }
  if (packets.empty()) return out;
  const std::size_t n = packets.size();

  CodedPacket scratch;
  ContentId content = 0;
  auto nothing = [] {};
  out["wire.deserialize.ns_per_frame"] = ns_per_frame(n, nothing, [&] {
    for (const auto& f : frames) wire::deserialize(f, content, scratch);
  });
  wire::Frame frame;
  out["wire.serialize.ns_per_frame"] = ns_per_frame(n, nothing, [&] {
    for (const CodedPacket& p : packets) wire::serialize(first, p, frame);
  });
  std::optional<session::LtSinkProtocol> sink;
  out["lt.bp_deliver.ns_per_frame"] = ns_per_frame(
      n, [&] { sink.emplace(capture.k, capture.payload_bytes); },
      [&] {
        for (const CodedPacket& p : packets) sink->deliver(p);
      });
  session::ProtocolParams params;
  params.k = capture.k;
  params.payload_bytes = capture.payload_bytes;
  std::optional<session::LtncProtocol> node;
  out["core.ltnc_deliver.ns_per_frame"] = ns_per_frame(
      n, [&] { node.emplace(params); },
      [&] {
        for (const CodedPacket& p : packets) node->deliver(p);
      });
  return out;
}

}  // namespace e2e
