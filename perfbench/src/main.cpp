// perfbench: the repository benchmark binary (one workload per process).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--spans-out FILE]
//
// Prints one JSON record (samples, checks, per-layer values) as its last
// stdout line. Exit code 0 when the run completed (the record's checks say
// whether its outputs were correct), 2 on bad arguments.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "util/log.hpp"

namespace perfbench {

std::uint32_t Spans::open(std::string name) {
  if (!enabled) return 0;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.name = std::move(name);
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Spans::close(std::uint32_t id, std::uint64_t count) {
  if (!enabled || id == 0) return;
  Span& s = spans_[id - 1];
  s.end_ns = now_ns();
  s.count = count;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> Spans::durations_ns(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

bool Spans::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"count\":" << s.count << "}\n";
  }
  return static_cast<bool>(out);
}

void Record::check(std::string name, bool ok, std::string detail) {
  checks.push_back(Check{std::move(name), ok, std::move(detail)});
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string to_json(const Record& r) {
  std::string out = "{\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) + ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    out += (i ? "," : "");
    out += "{\"name\":" + quoted(c.name) + ",\"ok\":" + (c.ok ? "true" : "false") +
           ",\"detail\":" + quoted(c.detail) + "}";
  }
  out += "],\"series\":{";
  bool first = true;
  for (const auto& [name, samples] : r.series) {
    out += (first ? "" : ",") + quoted(name) + ":[";
    for (std::size_t i = 0; i < samples.size(); ++i) out += (i ? "," : "") + number(samples[i]);
    out += "]";
    first = false;
  }
  out += "},\"values\":{";
  first = true;
  for (const auto& [name, v] : r.values) {
    out += (first ? "" : ",") + quoted(name) + ":" + number(v);
    first = false;
  }
  out += "},\"host\":{";
  first = true;
  for (const auto& [name, v] : r.host) {
    out += (first ? "" : ",") + quoted(name) + ":" + quoted(v);
    first = false;
  }
  out += "},\"layers\":{";
  first = true;
  for (const auto& [name, lv] : r.layers) {
    out += (first ? "" : ",") + quoted(name) + ":{\"value\":" + number(lv.value) +
           ",\"unit\":" + quoted(lv.unit) + "}";
    first = false;
  }
  return out + "}}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--tiny] [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (flag == "--workload") args.workload = val;
    else if (flag == "--seed") args.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(val.c_str(), nullptr);
    else if (flag == "--trace") args.trace = val == "1";
    else if (flag == "--spans-out") args.spans_out = val;
    else return usage();
  }
  if (args.workload.empty() || !(args.seconds > 0)) return usage();

  // Every manifest load logs the analyzer's warning-severity findings; the
  // benchmark loads manifests hundreds of times per run. The count is reported
  // once instead (vmm.verify_warnings).
  xb::util::Log::set_component_threshold("vmm", xb::util::LogLevel::kError);

  Spans spans;
  spans.enabled = args.trace;
  Record record;
  if (!run_workload(args, spans, record)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  record.values["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (args.trace && !args.spans_out.empty() && !spans.write_jsonl(args.spans_out)) {
    record.check("spans_written", false, args.spans_out);
  }
  std::printf("%s\n", to_json(record).c_str());
  return 0;
}
