#include "chaos/schedule.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace robustore::chaos {

const char* chaosVerbName(ChaosVerb verb) {
  switch (verb) {
    case ChaosVerb::kFailStop:
      return "fail-stop";
    case ChaosVerb::kCrashRecover:
      return "crash-recover";
    case ChaosVerb::kStall:
      return "stall";
    case ChaosVerb::kSlowDisk:
      return "slow-disk";
    case ChaosVerb::kChurnFail:
      return "churn-fail";
    case ChaosVerb::kChurnReplace:
      return "churn-replace";
    case ChaosVerb::kCorruptBlock:
      return "corrupt-block";
  }
  return "?";
}

bool CampaignPlan::destructive() const {
  for (const ChaosEvent& e : events) {
    if (e.verb == ChaosVerb::kFailStop || e.verb == ChaosVerb::kChurnFail ||
        e.verb == ChaosVerb::kCorruptBlock) {
      return true;
    }
  }
  return false;
}

CampaignPlan planFromSeed(std::uint64_t seed) {
  CampaignPlan plan;
  plan.seed = seed;
  plan.scheme = client::kAllSchemes[seed % 4];
  Rng rng(seed ^ 0xC7A05EEDULL);

  switch (plan.scheme) {
    case client::SchemeKind::kRaid0:
      plan.k = rng.bernoulli(0.5) ? 8 : 16;
      plan.redundancy = 0.0;
      break;
    case client::SchemeKind::kRRaidS:
      plan.k = rng.bernoulli(0.5) ? 8 : 16;
      plan.redundancy = rng.bernoulli(0.5) ? 1.0 : 2.0;  // 2 or 3 copies
      break;
    case client::SchemeKind::kRRaidA:
      // Small k so the MDS regenerating repair path has d >= k live
      // helpers on an 8-disk roster (Dimakis partial reads, not the
      // naive-decode fallback).
      plan.k = rng.bernoulli(0.5) ? 4 : 8;
      plan.redundancy = 2.0;
      break;
    case client::SchemeKind::kRobuStore:
      plan.k = rng.bernoulli(0.5) ? 8 : 16;
      plan.redundancy = 3.0;
      break;
  }
  plan.block_bytes = rng.bernoulli(0.5) ? 16 * kKiB : 64 * kKiB;
  plan.accesses = 2 + static_cast<std::uint32_t>(rng.below(2));
  plan.repair_budget = mbps(50.0);

  // Destructive budget: distinct disks that may lose data, per scheme
  // tolerance. One corrupt block burns a whole disk's budget — the repair
  // model restores at placement granularity, so that is the unit of loss.
  std::uint32_t budget = 0;
  switch (plan.scheme) {
    case client::SchemeKind::kRaid0:
      budget = 0;  // no redundancy: nothing may be destroyed
      break;
    case client::SchemeKind::kRRaidS:
    case client::SchemeKind::kRRaidA: {
      client::AccessConfig probe;
      probe.redundancy = plan.redundancy;
      budget = probe.replicaCount() - 1;
      break;
    }
    case client::SchemeKind::kRobuStore:
      budget = 2;  // 3x redundancy over 8 disks shrugs off two
      break;
  }

  // Events land in [0.5, deadline - 10) and every replacement by
  // deadline - 7: with a 1 s scan interval the repair service has >= 6
  // scans to re-protect everything before the deadline audit.
  const SimTime window = plan.deadline - 10.0 - 0.5;
  const std::uint32_t count = 2 + static_cast<std::uint32_t>(rng.below(6));
  std::vector<std::uint8_t> destroyed(plan.disks_per_access, 0);
  for (std::uint32_t i = 0; i < count; ++i) {
    ChaosEvent e;
    e.at = 0.5 + rng.uniform() * window;
    e.disk = static_cast<std::uint32_t>(rng.below(plan.disks_per_access));
    const bool want_destructive = budget > 0 && rng.bernoulli(0.4);
    if (want_destructive && destroyed[e.disk] == 0) {
      destroyed[e.disk] = 1;
      --budget;
      const double pick = rng.uniform();
      if (pick < 0.25) {
        // Corruption: one stored block, detected by the reader, restored
        // by the repair sweep. Does not need a replacement.
        e.verb = ChaosVerb::kCorruptBlock;
        e.block = static_cast<std::uint32_t>(rng.below(64));
        plan.events.push_back(e);
      } else {
        // Permanent loss (scripted fail-stop or churn failure — same
        // disk-level effect, different injection path), always paired
        // with a later empty replacement so redundancy can be rebuilt.
        e.verb = pick < 0.5 ? ChaosVerb::kFailStop : ChaosVerb::kChurnFail;
        plan.events.push_back(e);
        ChaosEvent repl;
        repl.verb = ChaosVerb::kChurnReplace;
        repl.disk = e.disk;
        repl.at = e.at + 1.0 + rng.uniform() * 2.0;
        plan.events.push_back(repl);
      }
      continue;
    }
    // Benign (delay-only) verbs. Outages are capped well inside the
    // retry budget: ~3.6 s of clamped backoff covers a 0.8 s outage on
    // every scheme, so a crash-recover alone never makes data
    // unreachable for good.
    const double pick = rng.uniform();
    if (pick < 0.4) {
      e.verb = ChaosVerb::kStall;
      e.duration = 0.05 + rng.uniform() * 0.45;
    } else if (pick < 0.75) {
      e.verb = ChaosVerb::kCrashRecover;
      e.duration = 0.1 + rng.uniform() * 0.7;
    } else {
      e.verb = ChaosVerb::kSlowDisk;
      e.multiplier = 2.0 + rng.uniform() * 4.0;
    }
    plan.events.push_back(e);
  }
  return plan;
}

CampaignPlan buggyBackoffPlan(std::uint64_t seed) {
  CampaignPlan plan;
  plan.seed = seed;
  plan.scheme = client::SchemeKind::kRaid0;  // every block is required
  plan.k = 8;
  plan.block_bytes = 16 * kKiB;
  plan.redundancy = 0.0;
  plan.accesses = 1;
  plan.unclamped_backoff = true;
  // Steep backoff + a long outage covering the access start: the clamped
  // retry ladder walks the 10 s outage out in ~0.5 s steps and completes
  // by ~10.5 s; without the clamp the exponential's rungs land at ~0.1,
  // 0.7, 5.9, then ~47 s — past the deadline, so the access never
  // terminates and the completion invariant fires.
  plan.access.reissue_delay = 0.01;
  plan.access.reissue_backoff = 8.0;
  plan.access.max_reissue_delay = 0.5;
  plan.access.max_reissues = 40;

  ChaosEvent outage;
  outage.verb = ChaosVerb::kCrashRecover;
  outage.disk = 0;
  outage.at = 0.0;  // down before the first request is issued
  outage.duration = 10.0;
  plan.events.push_back(outage);

  // Shrinker fodder: benign noise on other disks that a minimal repro
  // does not need.
  Rng rng(seed ^ 0xB0660FFULL);
  for (std::uint32_t i = 0; i < 4; ++i) {
    ChaosEvent noise;
    noise.disk = 1 + static_cast<std::uint32_t>(rng.below(7));
    noise.at = 0.5 + rng.uniform() * 10.0;
    if (rng.bernoulli(0.5)) {
      noise.verb = ChaosVerb::kStall;
      noise.duration = 0.05 + rng.uniform() * 0.3;
    } else {
      noise.verb = ChaosVerb::kSlowDisk;
      noise.multiplier = 2.0 + rng.uniform() * 3.0;
    }
    plan.events.push_back(noise);
  }
  return plan;
}

// ---------------------------------------------------------------------
// JSON serialization. Hand-rolled on purpose: the schema is tiny, the
// container has no JSON dependency, and repro files must round-trip
// doubles bit-exactly (%.17g) for bit-identical replay.

namespace {

void appendDouble(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void appendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

const char* schemeToken(client::SchemeKind kind) {
  switch (kind) {
    case client::SchemeKind::kRaid0:
      return "raid0";
    case client::SchemeKind::kRRaidS:
      return "rraid-s";
    case client::SchemeKind::kRRaidA:
      return "rraid-a";
    case client::SchemeKind::kRobuStore:
      return "robustore";
  }
  return "?";
}

client::SchemeKind schemeFromToken(const std::string& token) {
  if (token == "raid0") return client::SchemeKind::kRaid0;
  if (token == "rraid-s") return client::SchemeKind::kRRaidS;
  if (token == "rraid-a") return client::SchemeKind::kRRaidA;
  ROBUSTORE_EXPECTS(token == "robustore", "unknown scheme token");
  return client::SchemeKind::kRobuStore;
}

ChaosVerb verbFromToken(const std::string& token) {
  for (int v = 0; v <= static_cast<int>(ChaosVerb::kCorruptBlock); ++v) {
    const auto verb = static_cast<ChaosVerb>(v);
    if (token == chaosVerbName(verb)) return verb;
  }
  ROBUSTORE_EXPECTS(false, "unknown chaos verb token");
  return ChaosVerb::kStall;
}

/// Minimal recursive-descent reader for the fixed repro schema: objects,
/// arrays, strings (no escapes — tokens only), numbers, booleans.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  void expect(char c) {
    skipWs();
    ROBUSTORE_EXPECTS(pos_ < text_.size() && text_[pos_] == c,
                      "malformed repro JSON: unexpected character");
    ++pos_;
  }

  [[nodiscard]] bool consume(char c) {
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') out += text_[pos_++];
    expect('"');
    return out;
  }

  [[nodiscard]] double number() {
    skipWs();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    ROBUSTORE_EXPECTS(end != start, "malformed repro JSON: expected number");
    pos_ += static_cast<std::size_t>(end - start);
    return v;
  }

  [[nodiscard]] bool boolean() {
    skipWs();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    ROBUSTORE_EXPECTS(text_.compare(pos_, 5, "false") == 0,
                      "malformed repro JSON: expected boolean");
    pos_ += 5;
    return false;
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string serializePlan(const CampaignPlan& plan) {
  std::string out = "{\n";
  out += "  \"seed\": ";
  appendU64(out, plan.seed);
  out += ",\n  \"scheme\": \"";
  out += schemeToken(plan.scheme);
  out += "\",\n  \"num_servers\": ";
  appendU64(out, plan.num_servers);
  out += ",\n  \"disks_per_server\": ";
  appendU64(out, plan.disks_per_server);
  out += ",\n  \"disks_per_access\": ";
  appendU64(out, plan.disks_per_access);
  out += ",\n  \"k\": ";
  appendU64(out, plan.k);
  out += ",\n  \"block_bytes\": ";
  appendU64(out, plan.block_bytes);
  out += ",\n  \"redundancy\": ";
  appendDouble(out, plan.redundancy);
  out += ",\n  \"accesses\": ";
  appendU64(out, plan.accesses);
  out += ",\n  \"deadline\": ";
  appendDouble(out, plan.deadline);
  out += ",\n  \"scan_interval\": ";
  appendDouble(out, plan.scan_interval);
  out += ",\n  \"repair_budget\": ";
  appendDouble(out, plan.repair_budget);
  out += ",\n  \"unclamped_backoff\": ";
  out += plan.unclamped_backoff ? "true" : "false";
  out += ",\n  \"access\": {\"max_reissues\": ";
  appendU64(out, plan.access.max_reissues);
  out += ", \"reissue_delay\": ";
  appendDouble(out, plan.access.reissue_delay);
  out += ", \"reissue_backoff\": ";
  appendDouble(out, plan.access.reissue_backoff);
  out += ", \"max_reissue_delay\": ";
  appendDouble(out, plan.access.max_reissue_delay);
  out += ", \"request_timeout\": ";
  appendDouble(out, plan.access.request_timeout);
  out += "},\n  \"events\": [";
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const ChaosEvent& e = plan.events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"verb\": \"";
    out += chaosVerbName(e.verb);
    out += "\", \"disk\": ";
    appendU64(out, e.disk);
    out += ", \"at\": ";
    appendDouble(out, e.at);
    out += ", \"duration\": ";
    appendDouble(out, e.duration);
    out += ", \"multiplier\": ";
    appendDouble(out, e.multiplier);
    out += ", \"block\": ";
    appendU64(out, e.block);
    out += "}";
  }
  out += plan.events.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

CampaignPlan parsePlan(const std::string& json) {
  CampaignPlan plan;
  plan.events.clear();
  JsonReader r(json);
  r.expect('{');
  bool first = true;
  while (true) {
    if (!first && !r.consume(',')) break;
    first = false;
    r.skipWs();
    const std::string key = r.string();
    r.expect(':');
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(r.number());
    } else if (key == "scheme") {
      plan.scheme = schemeFromToken(r.string());
    } else if (key == "num_servers") {
      plan.num_servers = static_cast<std::uint32_t>(r.number());
    } else if (key == "disks_per_server") {
      plan.disks_per_server = static_cast<std::uint32_t>(r.number());
    } else if (key == "disks_per_access") {
      plan.disks_per_access = static_cast<std::uint32_t>(r.number());
    } else if (key == "k") {
      plan.k = static_cast<std::uint32_t>(r.number());
    } else if (key == "block_bytes") {
      plan.block_bytes = static_cast<Bytes>(r.number());
    } else if (key == "redundancy") {
      plan.redundancy = r.number();
    } else if (key == "accesses") {
      plan.accesses = static_cast<std::uint32_t>(r.number());
    } else if (key == "deadline") {
      plan.deadline = r.number();
    } else if (key == "scan_interval") {
      plan.scan_interval = r.number();
    } else if (key == "repair_budget") {
      plan.repair_budget = r.number();
    } else if (key == "unclamped_backoff") {
      plan.unclamped_backoff = r.boolean();
    } else if (key == "access") {
      r.expect('{');
      bool inner_first = true;
      while (true) {
        if (!inner_first && !r.consume(',')) break;
        inner_first = false;
        const std::string field = r.string();
        r.expect(':');
        if (field == "max_reissues") {
          plan.access.max_reissues = static_cast<std::uint32_t>(r.number());
        } else if (field == "reissue_delay") {
          plan.access.reissue_delay = r.number();
        } else if (field == "reissue_backoff") {
          plan.access.reissue_backoff = r.number();
        } else if (field == "max_reissue_delay") {
          plan.access.max_reissue_delay = r.number();
        } else if (field == "request_timeout") {
          plan.access.request_timeout = r.number();
        } else {
          ROBUSTORE_EXPECTS(false, "unknown access-tuning field");
        }
      }
      r.expect('}');
    } else if (key == "events") {
      r.expect('[');
      if (!r.consume(']')) {
        do {
          r.expect('{');
          ChaosEvent e;
          bool event_first = true;
          while (true) {
            if (!event_first && !r.consume(',')) break;
            event_first = false;
            const std::string field = r.string();
            r.expect(':');
            if (field == "verb") {
              e.verb = verbFromToken(r.string());
            } else if (field == "disk") {
              e.disk = static_cast<std::uint32_t>(r.number());
            } else if (field == "at") {
              e.at = r.number();
            } else if (field == "duration") {
              e.duration = r.number();
            } else if (field == "multiplier") {
              e.multiplier = r.number();
            } else if (field == "block") {
              e.block = static_cast<std::uint32_t>(r.number());
            } else {
              ROBUSTORE_EXPECTS(false, "unknown event field");
            }
          }
          r.expect('}');
          plan.events.push_back(e);
        } while (r.consume(','));
        r.expect(']');
      }
    } else {
      ROBUSTORE_EXPECTS(false, "unknown campaign-plan field");
    }
  }
  r.expect('}');
  return plan;
}

}  // namespace robustore::chaos
