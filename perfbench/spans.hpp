// Span recorder for the traced run: the benchmark opens one span around
// each public call it makes into a simulator layer. Spans live in memory
// and are written out once, at exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  // steady-clock seconds
  double end = 0.0;
  /// Index of the enclosing span in the recorder, or -1 for a root.
  std::int64_t parent = -1;
  /// The benchmark operation the span belongs to.
  std::uint64_t access = 0;
};

class SpanRecorder {
 public:
  /// RAII span: opens on construction as a child of the innermost open
  /// span and closes on destruction. A null recorder makes it a no-op,
  /// which is how untraced runs skip recording.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, std::uint64_t access);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::size_t index_ = 0;
  };

  /// Appends a finished span (tests, and spans reconstructed elsewhere).
  std::size_t add(Span span);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part of its interval covered by the
  /// union of its children's intervals (children may overlap each other
  /// or stick out of the parent; neither is counted twice or outside).
  [[nodiscard]] std::vector<double> selfSeconds() const;

  /// Durations of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Writes the spans as a JSON array; false on I/O failure.
  bool writeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
