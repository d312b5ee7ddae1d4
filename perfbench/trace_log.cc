#include "trace_log.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

uint64_t SpanLog::BeginExecute(const std::string& requester) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  inflight_[requester].push_back(id);
  return id;
}

void SpanLog::EndExecute(uint64_t id, const std::string& requester,
                         Clock::time_point start, Clock::time_point end) {
  Span span;
  span.name = "engine.execute";
  span.start = start;
  span.end = end;
  span.id = id;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inflight_.find(requester);
  if (it != inflight_.end()) {
    auto& ids = it->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) inflight_.erase(it);
  }
  spans_.push_back(std::move(span));
}

uint64_t SpanLog::ParentFor(const std::string& requester) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inflight_.find(requester);
  if (it == inflight_.end() || it->second.size() != 1) return 0;
  return it->second.front();
}

void SpanLog::Record(Span span) {
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::Take() {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(spans_);
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  return out;
}

piye::Result<TimingSource::FragmentResult> TimingSource::ExecuteFragment(
    const piye::source::PiqlQuery& fragment,
    const piye::CancelToken& cancel) const {
  if (!log_->enabled()) return inner_->ExecuteFragment(fragment, cancel);
  Span span;
  span.name = span_name_;
  span.owner = inner_->owner();
  span.parent = log_->ParentFor(fragment.requester);
  span.start = Clock::now();
  auto result = inner_->ExecuteFragment(fragment, cancel);
  span.end = Clock::now();
  span.ok = result.ok();
  if (result.ok()) span.rows = result->table.num_rows();
  log_->Record(std::move(span));
  return result;
}

bool WriteChromeTrace(const std::vector<Span>& spans, Clock::time_point origin,
                      const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  // One lane per span name and owner, so a source's fragments line up.
  std::map<std::string, int> lanes;
  std::fputs("[\n", out);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string lane_key = std::string(s.name) + "/" + s.owner;
    const int lane =
        lanes.emplace(lane_key, static_cast<int>(lanes.size())).first->second;
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin).count();
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"owner\":\"%s\",\"rows\":%llu,\"ok\":%s}}%s\n",
                 s.name, lane, ts, s.micros(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.owner.c_str(),
                 static_cast<unsigned long long>(s.rows),
                 s.ok ? "true" : "false", i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
