#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

namespace bluedove::e2e {

namespace {

/// (session, edge sequence number) as one key; both stay far below 2^32.
std::uint64_t edge_key(std::uint64_t session, std::uint64_t edge_seq) {
  return (session << 32) ^ edge_seq;
}

}  // namespace

const std::array<const char*, kStages> kStageNames{
    "gen.late",         "edge.ingress",         "node.dispatch_wait",
    "core.dispatch",    "net.req_send",         "net.req_wire",
    "node.match_queue", "runtime.offload_wait", "index.probe",
    "runtime.complete_wait", "cover.expand",    "node.fanout",
    "net.delivery_wire", "edge.egress"};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string make_payload(const Stamp& stamp, std::size_t bytes) {
  std::string out(std::max(bytes, kStampBytes), 'x');
  std::memcpy(out.data(), &stamp.seq, 8);
  std::memcpy(out.data() + 8, &stamp.due_ns, 8);
  return out;
}

bool read_stamp(const PayloadRef& payload, Stamp* out) {
  if (payload.size() < kStampBytes) return false;
  std::memcpy(&out->seq, payload.data(), 8);
  std::memcpy(&out->due_ns, payload.data() + 8, 8);
  return true;
}

Tracer::Tracer(std::size_t matchers, std::size_t clients,
               std::size_t max_messages)
    : slots_(max_messages / kEvery + 1) {
  for (auto& arr : points_) {
    arr = static_cast<std::int64_t*>(std::calloc(slots_, sizeof(std::int64_t)));
    if (arr == nullptr) std::abort();
  }
  for (std::size_t m = 0; m < matchers; ++m) {
    matcher_sends_.push_back(std::make_unique<Log<MatcherSend>>());
  }
  for (std::size_t c = 0; c < clients; ++c) {
    receipts_.push_back(std::make_unique<Log<Receipt>>());
  }
}

Tracer::~Tracer() {
  for (std::int64_t* arr : points_) std::free(arr);
}

void Tracer::arm(std::size_t messages, double deliveries_per_msg) {
  const auto deliveries = static_cast<std::size_t>(
      1.25 * deliveries_per_msg * static_cast<double>(messages));
  handoffs_.prefault(deliveries);
  for (auto& log : matcher_sends_) {
    log->prefault(2 * deliveries / matcher_sends_.size());
  }
  for (auto& log : receipts_) log->prefault(deliveries / receipts_.size());
  armed_.store(true, std::memory_order_release);
}

void Tracer::add_write(WriteOp op, std::int64_t ns) {
  const auto i = static_cast<std::size_t>(op);
  write_ns_[i].fetch_add(ns, std::memory_order_relaxed);
  write_n_[i].fetch_add(1, std::memory_order_relaxed);
}

double Tracer::write_mean_ms(WriteOp op) const {
  const auto i = static_cast<std::size_t>(op);
  const std::uint64_t n = write_n_[i].load(std::memory_order_relaxed);
  return n == 0 ? 0.0
                : 1e-6 * static_cast<double>(write_ns_[i].load()) /
                      static_cast<double>(n);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

Ledger assemble_ledger(Tracer& tracer, const std::vector<SeqRange>& ranges,
                       const std::vector<std::uint64_t>& sessions) {
  // 1. The completing receipt of each message: its critical path ends there.
  struct Crit {
    std::uint64_t sub = 0;  ///< cluster subscription id of the receipt
    std::int64_t rx = 0, handoff = 0, sent = 0;
  };
  std::unordered_map<std::uint64_t, Crit> crit;             // by seq
  std::unordered_map<std::uint64_t, std::uint64_t> by_edge;  // -> seq
  for (std::size_t c = 0; c < sessions.size(); ++c) {
    for (const Receipt& r : tracer.receipts(c).take()) {
      if (!r.completing) continue;
      crit[r.seq].rx = r.t;
      by_edge[edge_key(sessions[c], r.edge_seq)] = r.seq;
    }
  }
  // 2. Which cluster subscription that receipt was, and when the dispatcher
  //    handed it to the edge.
  for (const EdgeHandoff& h : tracer.handoffs().take()) {
    const auto it = by_edge.find(edge_key(h.session, h.edge_seq));
    if (it == by_edge.end() || it->second != h.seq) continue;
    crit[h.seq].sub = h.sub;
    crit[h.seq].handoff = h.t;
  }
  // 3. When the matcher's send() of that delivery returned.
  for (std::size_t m = 0; m < tracer.matchers(); ++m) {
    for (const MatcherSend& s : tracer.matcher_sends(m).take()) {
      const auto it = crit.find(s.seq);
      if (it != crit.end() && it->second.sub == s.sub) it->second.sent = s.t;
    }
  }

  Ledger out;
  std::array<std::vector<double>, kStages> stage;
  std::vector<double> complete;
  for (const SeqRange& range : ranges) {
    for (std::uint64_t seq = range.begin; seq < range.end; ++seq) {
      if (!tracer.sampled(seq) || tracer.get(Point::kDue, seq) == 0) continue;
      // The per-message points, then the critical delivery's send() return,
      // edge hand-off and client receipt.
      constexpr auto kPoints = static_cast<std::size_t>(Point::kCount);
      static_assert(kPoints + 3 == kStages + 1);
      std::array<std::int64_t, kStages + 1> t{};
      for (std::size_t p = 0; p < kPoints; ++p) {
        t[p] = tracer.get(static_cast<Point>(p), seq);
      }
      const auto it = crit.find(seq);
      const Crit k = it != crit.end() ? it->second : Crit{};
      t[kPoints] = k.sent;
      t[kPoints + 1] = k.handoff;
      t[kPoints + 2] = k.rx;
      // A send() ends, on the critical path, no later than the receiver
      // starts handling what it sent.
      constexpr auto kReqSendEnd = static_cast<std::size_t>(Point::kReqSendEnd);
      t[kReqSendEnd] = std::min(t[kReqSendEnd], t[kReqSendEnd + 1]);
      t[kPoints] = std::min(t[kPoints], t[kPoints + 1]);
      if (std::find(t.begin(), t.end(), 0) != t.end()) {
        ++out.unattributed;
        continue;
      }
      ++out.messages;
      bool negative = false;
      for (std::size_t s = 0; s < kStages; ++s) {
        const std::int64_t d = t[s + 1] - t[s];
        negative = negative || d < 0;
        stage[s].push_back(1e-6 * static_cast<double>(d));
      }
      if (negative) ++out.negative;
      complete.push_back(1e-6 * static_cast<double>(t[kStages] - t[0]));
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  for (std::size_t s = 0; s < kStages; ++s) {
    out.mean_ms[s] = mean(stage[s]);
    out.p99_ms[s] = quantile(stage[s], 0.99);
  }
  out.complete_mean_ms = mean(complete);
  out.complete_p99_ms = quantile(complete, 0.99);
  return out;
}

}  // namespace bluedove::e2e
