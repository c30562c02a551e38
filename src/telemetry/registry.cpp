#include "telemetry/registry.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

namespace robustore::telemetry {

template <typename T>
T& MetricRegistry::getOrCreate(Family<T>& family, std::string_view name) {
  if (const auto it = family.index.find(name); it != family.index.end()) {
    return *it->second;
  }
  auto& entry = family.entries.emplace_back(std::string(name), T{});
  family.index.emplace(entry.first, &entry.second);
  return entry.second;
}

Counter& MetricRegistry::counter(std::string_view name) {
  return getOrCreate(counters_, name);
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  return getOrCreate(gauges_, name);
}

QuantileHistogram& MetricRegistry::histogram(std::string_view name) {
  return getOrCreate(histograms_, name);
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Dots (our component
/// separator) and anything else illegal become '_'.
void appendPromName(std::string& out, std::string_view name) {
  out += "robustore_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
}

void appendPromValue(std::string& out, double value) {
  if (std::isinf(value)) {
    out += value > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  out += buf;
}

}  // namespace

std::string MetricRegistry::prometheusText() const {
  std::string out;
  for (const auto& [name, c] : counters_.entries) {
    out += "# TYPE ";
    appendPromName(out, name);
    out += " counter\n";
    appendPromName(out, name);
    out += ' ';
    out += std::to_string(c.value());
    out += '\n';
  }
  for (const auto& [name, g] : gauges_.entries) {
    out += "# TYPE ";
    appendPromName(out, name);
    out += " gauge\n";
    appendPromName(out, name);
    out += ' ';
    appendPromValue(out, g.value());
    out += '\n';
  }
  for (const auto& [name, h] : histograms_.entries) {
    out += "# TYPE ";
    appendPromName(out, name);
    out += " summary\n";
    for (const auto& [label, p] : {std::pair{"0.5", 50.0},
                                   std::pair{"0.9", 90.0},
                                   std::pair{"0.99", 99.0}}) {
      appendPromName(out, name);
      out += "{quantile=\"";
      out += label;
      out += "\"} ";
      appendPromValue(out, h.quantile(p));
      out += '\n';
    }
    appendPromName(out, name);
    out += "_sum ";
    appendPromValue(out, h.sum());
    out += '\n';
    appendPromName(out, name);
    out += "_count ";
    out += std::to_string(h.count());
    out += '\n';
  }
  return out;
}

}  // namespace robustore::telemetry
