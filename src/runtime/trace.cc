#include "runtime/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "runtime/metrics.h"
#include "runtime/resource_governor.h"

namespace vcq::runtime {

// Out-of-line half of QueryLedger::Charge's trip branch (see
// resource_governor.h): that header is included by every allocation site,
// so the trace/metrics dependencies live here instead.
void QueryLedger::RecordTrip(size_t in_use_bytes) {
  static metrics::Counter& trips =
      metrics::Registry::Global().GetCounter("vcq.governor.trips_total");
  trips.Add();
  if (trace_ != nullptr) {
    TraceSpan span;
    span.cat = "governor";
    span.name = "governor.trip";
    span.start_ns = span.end_ns = QueryTrace::NowNs();
    span.tuples = in_use_bytes;
    trace_->AddEvent(std::move(span));
  }
}

void QueryTrace::AddLaneSpan(uint32_t lane, TraceSpan span) {
  if (lane >= kMaxLanes) {
    AddEvent(std::move(span));
    return;
  }
  span.lane = lane;
  lanes_[lane].push_back(std::move(span));
}

void QueryTrace::AddEvent(TraceSpan span) {
  if (span.lane < kMaxLanes) span.lane = kSessionLane;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(span));
}

void QueryTrace::AddInstant(const char* cat, std::string name,
                            uint32_t site) {
  TraceSpan span;
  span.cat = cat;
  span.name = std::move(name);
  span.start_ns = span.end_ns = NowNs();
  span.site = site;
  AddEvent(std::move(span));
}

void QueryTrace::RecordOperator(uint32_t site, uint64_t ns, uint64_t rows,
                                uint64_t batches) {
  if (site >= kMaxSites) return;
  SiteAgg& agg = ops_[site];
  agg.ns.fetch_add(ns, std::memory_order_relaxed);
  agg.rows.fetch_add(rows, std::memory_order_relaxed);
  agg.batches.fetch_add(batches, std::memory_order_relaxed);
}

QueryTrace::OperatorStats QueryTrace::OperatorAt(uint32_t site) const {
  OperatorStats stats;
  if (site >= kMaxSites) return stats;
  const SiteAgg& agg = ops_[site];
  stats.ns = agg.ns.load(std::memory_order_relaxed);
  stats.rows = agg.rows.load(std::memory_order_relaxed);
  stats.batches = agg.batches.load(std::memory_order_relaxed);
  return stats;
}

bool QueryTrace::HasOperator(uint32_t site) const {
  if (site >= kMaxSites) return false;
  return ops_[site].batches.load(std::memory_order_relaxed) != 0 ||
         ops_[site].ns.load(std::memory_order_relaxed) != 0;
}

std::vector<TraceSpan> QueryTrace::Spans() const {
  std::vector<TraceSpan> out;
  for (const std::vector<TraceSpan>& lane : lanes_)
    out.insert(out.end(), lane.begin(), lane.end());
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.insert(out.end(), events_.begin(), events_.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

size_t QueryTrace::span_count() const {
  size_t n = 0;
  for (const std::vector<TraceSpan>& lane : lanes_) n += lane.size();
  std::lock_guard<std::mutex> lock(mu_);
  return n + events_.size();
}

uint64_t QueryTrace::SpillBytesAt(uint32_t site) const {
  uint64_t bytes = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const TraceSpan& span : events_) {
    if (span.site == site && span.name == "spill.write")
      bytes += span.tuples;
  }
  return bytes;
}

uint64_t QueryTrace::BuildNsAt(uint32_t site) const {
  uint64_t ns = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const TraceSpan& span : events_) {
    if (span.site == site && span.name == kJoinBuild)
      ns += span.duration_ns();
  }
  return ns;
}

void QueryTrace::Append(const QueryTrace& other) {
  std::vector<TraceSpan> spans = other.Spans();
  std::lock_guard<std::mutex> lock(mu_);
  for (TraceSpan& span : spans) {
    if (span.lane < kMaxLanes) span.lane = kSessionLane;
    events_.push_back(std::move(span));
  }
}

namespace {

void AppendJsonEscaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string QueryTrace::ToChromeJson() const {
  const std::vector<TraceSpan> spans = Spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& span : spans) {
    if (!first) out += ',';
    first = false;
    char buf[256];
    // Complete ("X") events; timestamps in microseconds on the
    // steady-clock epoch. One tid per lane, the event lane last.
    out += "{\"name\":\"";
    AppendJsonEscaped(out, span.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(out, span.cat);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%u,\"args\":{",
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.duration_ns()) / 1e3, span.lane);
    out += buf;
    bool first_arg = true;
    if (span.site != kNoSite) {
      std::snprintf(buf, sizeof(buf), "\"site\":%u", span.site);
      out += buf;
      first_arg = false;
    }
    if (span.tuples != 0) {
      std::snprintf(buf, sizeof(buf), "%s\"tuples\":%" PRIu64,
                    first_arg ? "" : ",", span.tuples);
      out += buf;
      first_arg = false;
    }
    if (span.calls != 0) {
      std::snprintf(buf, sizeof(buf), "%s\"batches\":%" PRIu64,
                    first_arg ? "" : ",", span.calls);
      out += buf;
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace vcq::runtime
