// Shared declarations of the repository benchmark binary.
//
// The binary runs one workload per process and prints one JSON record on its
// last stdout line: raw samples (feed times, churn-event times, set-up
// times), the output checks, and -- in the traced run -- the per-layer
// metrics. perfbench/run.py turns the samples into the reported medians and
// percentiles. See perfbench/README.md for the workloads and the layer map.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/message.hpp"
#include "harness/stats.hpp"
#include "rpki/loader.hpp"

namespace perfbench {

/// Median of a non-empty sample.
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return xb::harness::quantile_sorted(v, 0.5);
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs and short phases for the self-test smoke run.
  bool tiny = false;
  /// Where the traced run writes its spans (JSON lines); empty: not written.
  std::string spans_out;
};

/// Bench-side spans: recorded around the calls the benchmark makes into each
/// layer, kept in memory and written out at exit. Disabled (no-op) in the
/// untraced run.
class Spans {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0: root
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t count = 0;  // calls or routes the span covers
  };

  class Scope {
   public:
    Scope(Spans& spans, std::string name) : spans_(spans), id_(spans.open(std::move(name))) {}
    ~Scope() { spans_.close(id_, count_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_count(std::uint64_t n) { count_ = n; }

   private:
    Spans& spans_;
    std::uint32_t id_;
    std::uint64_t count_ = 0;
  };

  bool enabled = false;

  std::uint32_t open(std::string name);
  void close(std::uint32_t id, std::uint64_t count);
  [[nodiscard]] const std::vector<Span>& all() const { return spans_; }
  /// Durations (ns) of the spans called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_ns(std::string_view name) const;
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct LayerValue {
  double value = 0;
  std::string unit;
};

/// Everything one run reports.
struct Record {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  /// Raw samples by series name, e.g. "fir.ext_routes_per_s", "setup_s".
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> values;
  std::map<std::string, std::string> host;
  std::map<std::string, LayerValue> layers;

  void check(std::string name, bool ok, std::string detail = {});
  void layer(const std::string& name, double value, const char* unit) {
    layers[name] = LayerValue{value, unit};
  }
};

/// The workload's own inputs, reused by the micro-timed layer probes.
struct LayerInputs {
  const std::vector<std::vector<std::uint8_t>>& wire;
  const std::vector<xb::bgp::UpdateMessage>& decoded;
  const std::vector<xb::rpki::AnnouncedRoute>& routes;
  const std::vector<xb::rpki::Roa>& roas;
};

/// Times the public calls of the codec, host cores, interner, policy,
/// decision and rpki layers over `in`, with a span around each probe, and
/// records their per-call costs as per-layer metrics.
void probe_layers(const LayerInputs& in, bool tiny, Spans& spans, Record& out);

/// Runs the workload named in `args` and fills `out`; false on an unknown
/// workload name.
bool run_workload(const Args& args, Spans& spans, Record& out);

}  // namespace perfbench
