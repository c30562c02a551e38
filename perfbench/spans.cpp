#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "measure.hpp"

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name,
                           std::uint64_t access)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  Span span;
  span.name = name;
  span.access = access;
  span.parent = recorder_->open_.empty()
                    ? -1
                    : static_cast<std::int64_t>(recorder_->open_.back());
  index_ = recorder_->spans_.size();
  recorder_->open_.push_back(index_);
  recorder_->spans_.push_back(std::move(span));
  // Stamp last, so recorder bookkeeping stays outside the span.
  recorder_->spans_[index_].start = nowSeconds();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->spans_[index_].end = nowSeconds();
  recorder_->open_.pop_back();
}

std::size_t SpanRecorder::add(Span span) {
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

std::vector<double> SpanRecorder::selfSeconds() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;  // end of the union covered so far
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, s.end));
    }
    self[i] = std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

bool SpanRecorder::writeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = selfSeconds();
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"self_s\": %.9f, \"parent\": %lld, \"access\": %llu}%s\n",
                 s.name.c_str(), s.start - origin, s.end - origin, self[i],
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.access),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
