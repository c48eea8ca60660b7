#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "qoc/sim/cost_model.hpp"

namespace perfbench {

double Samples::quantile(double q, std::size_t begin, std::size_t end) const {
  if (begin >= end) return 0.0;
  std::vector<double> s(v_.begin() + begin, v_.begin() + end);
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

double Samples::chunk_quantile(double q) const {
  Samples per_chunk;
  std::size_t begin = 0;
  for (const std::size_t end : marks_) {
    if (end > begin) per_chunk.add(quantile(q, begin, end));
    begin = end;
  }
  return per_chunk.empty() ? quantile(q) : per_chunk.median();
}

double Samples::sum() const {
  double t = 0.0;
  for (const double v : v_) t += v;
  return t;
}

bool RateMeter::observe(std::uint64_t cumulative) {
  const auto now = Clock::now();
  if (!started_) {
    started_ = true;
    first_ = chunk_start_ = last_ = now;
    first_work_ = chunk_work_ = last_work_ = cumulative;
    return false;
  }
  last_ = now;
  last_work_ = cumulative;
  const double dt = std::chrono::duration<double>(now - chunk_start_).count();
  if (dt < chunk_s_) return false;
  rates_.add(static_cast<double>(cumulative - chunk_work_) / dt);
  chunk_start_ = now;
  chunk_work_ = cumulative;
  return true;
}

double RateMeter::rate() const {
  if (!rates_.empty()) return rates_.median();
  const double dt = std::chrono::duration<double>(last_ - first_).count();
  return dt > 0.0 ? static_cast<double>(last_work_ - first_work_) / dt : 0.0;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_[name] = M{value, unit, samples};
}

void Report::gate(const std::string& name, bool ok,
                  const std::string& detail) {
  gates_.push_back(G{name, ok, detail});
  if (!ok) std::fprintf(stderr, "GATE FAILED %s: %s\n", name.c_str(),
                        detail.c_str());
}

void Report::context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, json_string(value));
}

void Report::context(const std::string& key, double value) {
  context_.emplace_back(key, json_number(value));
}

bool Report::correct() const {
  if (gates_.empty()) return false;
  for (const auto& g : gates_)
    if (!g.ok) return false;
  return true;
}

std::string Report::to_json() const {
  std::ostringstream o;
  o << "{\"correct\":" << (correct() ? "true" : "false")
    << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
    << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    o << (first ? "" : ",") << json_string(name) << ":{\"value\":"
      << json_number(m.value) << ",\"unit\":" << json_string(m.unit)
      << ",\"samples\":" << m.samples << "}";
    first = false;
  }
  o << "},\"gates\":[";
  first = true;
  for (const auto& g : gates_) {
    o << (first ? "" : ",") << "{\"name\":" << json_string(g.name)
      << ",\"ok\":" << (g.ok ? "true" : "false")
      << ",\"detail\":" << json_string(g.detail) << "}";
    first = false;
  }
  o << "],\"context\":{";
  first = true;
  for (const auto& [k, v] : context_) {
    o << (first ? "" : ",") << json_string(k) << ":" << v;
    first = false;
  }
  o << "},\"trace_file\":"
    << (trace_file_.empty() ? "null" : json_string(trace_file_)) << "}";
  return o.str();
}

void Report::print_table() const {
  std::printf("%-36s %16s %-8s %8s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, m] : metrics_)
    std::printf("%-36s %16.6g %-8s %8zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  for (const auto& g : gates_)
    std::printf("gate %-31s %s  %s\n", g.name.c_str(), g.ok ? "ok" : "FAIL",
                g.detail.c_str());
}

ObsSnapshot ObsSnapshot::take() {
  auto& reg = qoc::obs::Registry::global();
  auto c = [&](const char* n) { return reg.counter(n).value(); };
  ObsSnapshot s;
  auto& h = reg.histogram("qoc_backend_run_batch_ns");
  s.run_batch_calls = h.count();
  s.run_batch_ns = h.sum_ns();
  s.transpile_hits = c("qoc_transpile_cache_hits_total");
  s.transpile_misses = c("qoc_transpile_cache_misses_total");
  s.pattern_hits = c("qoc_pattern_cache_hits_total");
  s.pattern_misses = c("qoc_pattern_cache_misses_total");
  s.lane_wide_evals = c("qoc_sim_lane_wide_evals_total");
  s.lane_scalar_evals = c("qoc_sim_lane_scalar_evals_total");
  s.lane_wide_groups = c("qoc_sim_lane_wide_groups_total");
  s.lane_padding_lanes = c("qoc_sim_lane_tail_padding_lanes_total");
  s.serve_batches = c("qoc_serve_batches_total");
  s.serve_coalesced = c("qoc_serve_coalesced_jobs_total");
  s.serve_deadline_flushes = c("qoc_serve_deadline_flushes_total");
  s.serve_size_flushes = c("qoc_serve_size_flushes_total");
  s.serve_cache_hits = c("qoc_serve_cache_hits_total");
  s.serve_folded = c("qoc_serve_jobs_folded_total");
  s.serve_submitted = c("qoc_serve_jobs_submitted_total");
  return s;
}

ObsSnapshot ObsSnapshot::operator-(const ObsSnapshot& o) const {
  ObsSnapshot d;
  d.run_batch_calls = run_batch_calls - o.run_batch_calls;
  d.run_batch_ns = run_batch_ns - o.run_batch_ns;
  d.transpile_hits = transpile_hits - o.transpile_hits;
  d.transpile_misses = transpile_misses - o.transpile_misses;
  d.pattern_hits = pattern_hits - o.pattern_hits;
  d.pattern_misses = pattern_misses - o.pattern_misses;
  d.lane_wide_evals = lane_wide_evals - o.lane_wide_evals;
  d.lane_scalar_evals = lane_scalar_evals - o.lane_scalar_evals;
  d.lane_wide_groups = lane_wide_groups - o.lane_wide_groups;
  d.lane_padding_lanes = lane_padding_lanes - o.lane_padding_lanes;
  d.serve_batches = serve_batches - o.serve_batches;
  d.serve_coalesced = serve_coalesced - o.serve_coalesced;
  d.serve_deadline_flushes = serve_deadline_flushes - o.serve_deadline_flushes;
  d.serve_size_flushes = serve_size_flushes - o.serve_size_flushes;
  d.serve_cache_hits = serve_cache_hits - o.serve_cache_hits;
  d.serve_folded = serve_folded - o.serve_folded;
  d.serve_submitted = serve_submitted - o.serve_submitted;
  return d;
}

namespace {
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void report_backend_layers(Report& r, const ObsSnapshot& d,
                           std::uint64_t evals) {
  r.metric("backend.run_batch_calls", static_cast<double>(d.run_batch_calls),
           "count", d.run_batch_calls);
  r.metric("backend.evals", static_cast<double>(evals), "count", evals);
  r.metric("backend.busy_ms", d.run_batch_ns / 1e6, "ms", d.run_batch_calls);
  r.metric("backend.us_per_eval",
           ratio(static_cast<double>(d.run_batch_ns) / 1e3,
                 static_cast<double>(evals)),
           "us", evals);
  r.metric("transpile.cache_hit_ratio",
           ratio(d.transpile_hits, d.transpile_hits + d.transpile_misses),
           "ratio", d.transpile_hits + d.transpile_misses);
  r.metric("transpile.pattern_cache_hit_ratio",
           ratio(d.pattern_hits, d.pattern_hits + d.pattern_misses), "ratio",
           d.pattern_hits + d.pattern_misses);
  r.metric("sim.lane_wide_frac",
           ratio(d.lane_wide_evals, d.lane_wide_evals + d.lane_scalar_evals),
           "ratio", d.lane_wide_evals + d.lane_scalar_evals);
  r.metric("sim.lane_padding_ratio",
           ratio(d.lane_padding_lanes, d.lane_wide_evals + d.lane_padding_lanes),
           "ratio", d.lane_wide_groups);
}

PendingTicketsProbe::PendingTicketsProbe() {
  qoc::obs::Gauge* gauge =
      &qoc::obs::Registry::global().gauge("qoc_threadpool_pending_tickets");
  thread_ = std::thread([this, gauge] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::int64_t v = gauge->value();
      if (v > max_.load(std::memory_order_relaxed))
        max_.store(v, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
}

PendingTicketsProbe::~PendingTicketsProbe() {
  stop_.store(true);
  thread_.join();
}

void start_tracing(std::size_t ring_capacity) {
  qoc::obs::Tracer::instance().start(ring_capacity);
}

void finish_tracing(const Options& opt, Report& r) {
  auto& tracer = qoc::obs::Tracer::instance();
  tracer.stop();
  const std::uint64_t dropped = tracer.dropped_events();
  const std::uint64_t recorded = tracer.recorded_events();
  r.metric("trace.dropped_events", static_cast<double>(dropped), "count",
           recorded);
  r.gate("trace_no_dropped_events", dropped == 0 && recorded > 0,
         std::to_string(recorded) + " recorded, " + std::to_string(dropped) +
             " dropped");
  const std::string path = opt.out_dir + "/trace-" + opt.workload + ".json";
  std::ofstream(path) << tracer.chrome_json();
  tracer.clear();
  r.set_trace_file(path);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

std::string lane_calibration_string() {
  return qoc::sim::lane_calibration().serialize();
}

void record_context(Report& r, const char* phase) {
  r.context(std::string("loadavg_") + phase, loadavg());
  if (std::string(phase) != "start") return;
  r.context("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  r.context("qoc_obs", static_cast<double>(QOC_OBS));
  r.context("build_type", QOC_PERFBENCH_BUILD_TYPE);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
