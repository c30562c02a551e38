#include "telemetry/timeline.hpp"

#include <cmath>
#include <cstdio>

#include "telemetry/registry.hpp"

namespace robustore::telemetry {
namespace {

/// Non-finite gauge values serialize as fixed tokens: printf's "nan"
/// carries an implementation-defined sign ("-nan" on some libcs — a
/// nondeterministic export byte), and "inf" is not a JSON token at all.
/// CSV gets the bare tokens; JSON quotes them so the document stays
/// parseable.
const char* nonFiniteToken(double value) {
  if (std::isnan(value)) return "NaN";
  return value > 0 ? "Inf" : "-Inf";
}

void appendNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += nonFiniteToken(value);
    return;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  out += buf;
}

void appendJsonNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += '"';
    out += nonFiniteToken(value);
    out += '"';
    return;
  }
  appendNumber(out, value);
}

}  // namespace

Timeline::Series& Timeline::series(std::string_view name) {
  if (const auto it = index_.find(name); it != index_.end()) {
    return *it->second;
  }
  Series& s = series_.emplace_back();
  s.name = name;
  index_.emplace(s.name, &s);
  return s;
}

std::size_t Timeline::totalPoints() const {
  std::size_t total = 0;
  for (const Series& s : series_) total += s.size();
  return total;
}

std::string Timeline::toCsv() const {
  std::string out = "t_s,series,value\n";
  for (const Series& s : series_) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      appendNumber(out, s.t[i]);
      out += ',';
      out += s.name;
      out += ',';
      appendNumber(out, s.v[i]);
      out += '\n';
    }
  }
  return out;
}

std::string Timeline::toJson(SimTime sample_dt) const {
  std::string out = "{";
  if (sample_dt > 0.0) {
    out += "\"sample_dt_s\":";
    appendNumber(out, sample_dt);
    out += ",";
  }
  out += "\"series\":[";
  bool first = true;
  for (const Series& s : series_) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"";
    out += s.name;  // series names are dotted identifiers, no escaping needed
    out += "\",\"points\":[";
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i != 0) out += ",";
      out += '[';
      appendJsonNumber(out, s.t[i]);
      out += ',';
      appendJsonNumber(out, s.v[i]);
      out += ']';
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

void Timeline::clear() {
  series_.clear();
  index_.clear();
}

void snapshotToRegistry(const Timeline& timeline, MetricRegistry& registry) {
  registry.counter("telemetry.series").increment(timeline.numSeries());
  registry.counter("telemetry.samples").increment(timeline.totalPoints());
  for (const auto& s : timeline.allSeries()) {
    if (s.size() == 0) continue;
    registry.gauge(s.name).set(s.last());
    QuantileHistogram& h = registry.histogram(s.name);
    for (const double v : s.v) h.record(v);
  }
}

}  // namespace robustore::telemetry
