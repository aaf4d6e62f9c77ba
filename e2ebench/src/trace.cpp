#include "trace.hpp"

#include <deque>
#include <iomanip>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

struct RawSpan {
  std::int64_t start_ns = 0;  ///< since the last reset_traces()
  std::int64_t dur_ns = 0;
  Span span = Span::kCount;
};

/// One thread's trace state. Owned by the global registry so it outlives
/// the (per-repetition) threads that write it.
struct ThreadTrace {
  std::string role;  ///< "main" (the driving thread), "shard", "rx", ...
  std::uint32_t tid = 0;
  SpanTotals totals[static_cast<std::size_t>(Span::kCount)];
  std::vector<RawSpan> raw;  ///< kept while the process-wide budget lasts
  struct Open {
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };
  std::vector<Open> stack;
};

namespace {

// Raw spans kept for the Chrome dump, across all threads; the
// aggregates cover every span.
constexpr std::int64_t kRawBudget = 1 << 17;
std::atomic<std::int64_t> g_raw_left{kRawBudget};

struct Registry {
  std::mutex mu;
  std::deque<std::unique_ptr<ThreadTrace>> threads;  // guarded by mu
  std::int64_t epoch_ns = now_ns();  ///< raw span time origin
};

Registry& registry() {
  static Registry r;
  return r;
}

thread_local ThreadTrace* t_trace = nullptr;
thread_local const char* t_role = "main";

}  // namespace

const char* span_name(Span span) {
  switch (span) {
    case Span::kLtEncode: return "lt.encode";
    case Span::kCoreRecode: return "core.recode";
    case Span::kOfferPacket: return "session.offer_packet";
    case Span::kPollTransmit: return "session.poll_transmit";
    case Span::kHandleFrame: return "session.handle_frame";
    case Span::kTick: return "session.tick";
    case Span::kRouteFrame: return "session.route_frame";
    case Span::kShardedPollTransmit: return "session.sharded_poll_transmit";
    case Span::kNetSend: return "net.send";
    case Span::kNetRecv: return "net.recv";
    case Span::kFinishAndVerify: return "session.finish_and_verify";
    case Span::kHashVerify: return "verify.hash";
    case Span::kCount: break;
  }
  return "?";
}

void set_thread_role(const char* role) { t_role = role; }

/// This thread's trace state, registered on first use under its role.
static ThreadTrace& thread_trace() {
  if (t_trace == nullptr) {
    auto trace = std::make_unique<ThreadTrace>();
    trace->role = t_role;
    trace->stack.reserve(16);
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    trace->tid = static_cast<std::uint32_t>(r.threads.size());
    t_trace = trace.get();
    r.threads.push_back(std::move(trace));
  }
  return *t_trace;
}

void Scope::begin() {
  trace_ = &thread_trace();
  trace_->stack.push_back({now_ns(), 0});
}

void Scope::end() {
  const std::int64_t stop = now_ns();
  const ThreadTrace::Open open = trace_->stack.back();
  trace_->stack.pop_back();
  const std::int64_t dur = stop - open.start_ns;
  SpanTotals& t = trace_->totals[static_cast<std::size_t>(span_)];
  ++t.calls;
  t.total_ns += static_cast<std::uint64_t>(dur);
  t.self_ns += static_cast<std::uint64_t>(dur - open.child_ns);
  if (!trace_->stack.empty()) trace_->stack.back().child_ns += dur;
  if (g_raw_left.load(std::memory_order_relaxed) > 0 &&
      g_raw_left.fetch_sub(1, std::memory_order_relaxed) > 0) {
    trace_->raw.push_back({open.start_ns - registry().epoch_ns, dur, span_});
  }
}

void sum_totals(SpanTotals out[], const char* role_filter) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& t : r.threads) {
    if (role_filter != nullptr && t->role != role_filter) continue;
    for (std::size_t i = 0; i < static_cast<std::size_t>(Span::kCount); ++i) {
      out[i].calls += t->totals[i].calls;
      out[i].total_ns += t->totals[i].total_ns;
      out[i].self_ns += t->totals[i].self_ns;
    }
  }
}

void reset_traces() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& t : r.threads) {
    for (auto& totals : t->totals) totals = SpanTotals{};
    t->raw.clear();
  }
  g_raw_left.store(kRawBudget);
  r.epoch_ns = now_ns();
}

void dump_chrome_trace(std::ostream& out) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& t : r.threads) {
    if (t->raw.empty()) continue;
    if (!first) out << ",\n";
    first = false;
    out << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << t->tid
        << R"(,"args":{"name":")" << t->role << "\"}}";
    for (const RawSpan& s : t->raw) {
      out << ",\n"
          << R"({"name":")" << span_name(s.span) << R"(","ph":"X","ts":)"
          << static_cast<double>(s.start_ns) / 1e3
          << R"(,"dur":)" << static_cast<double>(s.dur_ns) / 1e3
          << R"(,"pid":0,"tid":)" << t->tid << "}";
    }
  }
  out << "\n]}\n";
}

}  // namespace e2e
