#pragma once
// Shared plumbing for the qoc_perfbench binary: options, timing,
// sample statistics, the result report (metrics, correctness gates, run
// context) and before/after snapshots of the program's own obs metrics.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "qoc/obs/metrics.hpp"
#include "qoc/obs/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // a few steps per workload: schema + gates only
  std::string out_dir = ".";
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

/// Time one call in milliseconds.
template <class F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return ms_since(t0);
}

inline bool bit_equal(const std::vector<double>& a,
                      const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Timing samples with linear-interpolated quantiles.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double quantile(double q) const { return quantile(q, 0, v_.size()); }
  double median() const { return quantile(0.5); }
  double sum() const;
  double mean() const { return v_.empty() ? 0.0 : sum() / v_.size(); }

  /// Closes a chunk at the current size (see RateMeter).
  void mark() { marks_.push_back(v_.size()); }
  /// Median over closed chunks of each chunk's q-quantile, skipping
  /// empty chunks; quantile(q) when no chunk holds samples.
  double chunk_quantile(double q) const;

 private:
  double quantile(double q, std::size_t begin, std::size_t end) const;

  std::vector<double> v_;
  std::vector<std::size_t> marks_;
};

/// Throughput as the median over consecutive chunks of at least
/// `chunk_s` seconds, so a transient stall on a shared host moves one
/// chunk, not the whole figure. Feed it a cumulative work count at each
/// unit boundary; a trailing partial chunk is dropped.
class RateMeter {
 public:
  explicit RateMeter(double chunk_s) : chunk_s_(chunk_s) {}
  /// Returns true when this call closed a chunk.
  bool observe(std::uint64_t cumulative);
  /// Median chunk rate; the overall rate when no chunk closed.
  double rate() const;
  /// Chunks behind rate() (1 for the overall-rate fallback).
  std::size_t samples() const { return rates_.empty() ? 1 : rates_.size(); }

 private:
  double chunk_s_;
  bool started_ = false;
  Clock::time_point first_, chunk_start_;
  std::uint64_t first_work_ = 0, chunk_work_ = 0, last_work_ = 0;
  Clock::time_point last_;
  Samples rates_;
};

/// Repeats a set-up at least 3 times and until 1.5 s were spent in it
/// (at most 200 times); returns the per-repetition times in seconds.
/// `teardown` (untimed) drops the previous repetition's objects.
template <class T, class F>
Samples repeat_setup(bool smoke, T&& teardown, F&& setup) {
  Samples s;
  double total = 0.0;
  while (s.size() < (smoke ? 1u : 3u) ||
         (!smoke && total < 1.5 && s.size() < 200)) {
    teardown();
    const auto t0 = Clock::now();
    setup();
    const double dt = seconds_since(t0);
    s.add(dt);
    total += dt;
  }
  return s;
}

/// Bench-owned span around a call into a public library function. A
/// no-op (one relaxed load) unless the Tracer is running.
using Span = qoc::obs::SpanGuard;

/// Everything one run prints: metrics with unit and sample count,
/// correctness gates, and the run context.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// Records a gate; a failed gate makes the run incorrect.
  void gate(const std::string& name, bool ok, const std::string& detail);
  void context(const std::string& key, const std::string& value);
  void context(const std::string& key, double value);
  void add_attempted(std::uint64_t n, std::uint64_t failed = 0) {
    attempted_ += n;
    failed_ += failed;
  }
  void set_trace_file(const std::string& path) { trace_file_ = path; }

  bool correct() const;
  std::string to_json() const;
  void print_table() const;

 private:
  struct M {
    double value;
    std::string unit;
    std::size_t samples;
  };
  struct G {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, M> metrics_;
  std::vector<G> gates_;
  std::vector<std::pair<std::string, std::string>> context_;  // raw JSON
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string trace_file_;
};

/// Point-in-time copy of the program's global obs metrics; two
/// snapshots bracket a timed window and their difference is what the
/// window did.
struct ObsSnapshot {
  std::uint64_t run_batch_calls = 0;
  std::uint64_t run_batch_ns = 0;
  std::uint64_t transpile_hits = 0, transpile_misses = 0;
  std::uint64_t pattern_hits = 0, pattern_misses = 0;
  std::uint64_t lane_wide_evals = 0, lane_scalar_evals = 0;
  std::uint64_t lane_wide_groups = 0, lane_padding_lanes = 0;
  std::uint64_t serve_batches = 0, serve_coalesced = 0;
  std::uint64_t serve_deadline_flushes = 0, serve_size_flushes = 0;
  std::uint64_t serve_cache_hits = 0, serve_folded = 0;
  std::uint64_t serve_submitted = 0;

  static ObsSnapshot take();
  ObsSnapshot operator-(const ObsSnapshot& o) const;
};

/// Adds the backend/transpile/sim layer metrics of one window.
void report_backend_layers(Report& r, const ObsSnapshot& d,
                           std::uint64_t evals);

/// Samples qoc_threadpool_pending_tickets on a sleeping side thread
/// while alive (traced runs only); max() is the highest value seen.
class PendingTicketsProbe {
 public:
  PendingTicketsProbe();
  ~PendingTicketsProbe();
  PendingTicketsProbe(const PendingTicketsProbe&) = delete;
  PendingTicketsProbe& operator=(const PendingTicketsProbe&) = delete;
  std::int64_t max() const { return max_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> max_{0};
  std::thread thread_;
};

/// Starts the Tracer with rings sized for the traced window.
void start_tracing(std::size_t ring_capacity);
/// Stops it, writes Chrome JSON under out_dir and gates on zero drops.
void finish_tracing(const Options& opt, Report& r);

double peak_rss_mb();
std::string loadavg();
/// Context every run records: nproc, load, obs build, build type.
void record_context(Report& r, const char* phase);
/// lane_calibration().serialize() of the running process.
std::string lane_calibration_string();

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// Workloads (each fills the report; returns normally even when a gate
// fails, so the failure is printed with the rest).
void run_train(const Options& opt, Report& r);
void run_vqe(const Options& opt, Report& r);
void run_serve(const Options& opt, Report& r);

}  // namespace perfbench
