// Served inference workload: the five paper task models registered with
// a ServeSession over one exact StatevectorBackend replica, driven by a
// seeded generator through a Client. Every served result is checked
// bit for bit against a direct run on a fresh exact backend.

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "qoc/backend/backend.hpp"
#include "qoc/data/images.hpp"
#include "qoc/data/vowel.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/serve/serve.hpp"
#include "qoc/sim/cost_model.hpp"

namespace perfbench {
namespace {

using namespace qoc;

const char* const kTasks[] = {"mnist2", "fashion2", "mnist4", "fashion4",
                              "vowel4"};
constexpr std::size_t kNumTasks = 5;
constexpr std::size_t kThetas = 8;     // parameter snapshots per model
constexpr std::size_t kExamples = 48;  // examples per task
/// Distinct bindings the generator draws from: 5 x 8 x 48 = 1920; the
/// cache holds fewer.
constexpr std::size_t kCacheCapacity = 512;
/// Snapshots per model for validation passes, drawn apart from the
/// generator's: 5 x 64 x 48 pass bindings cycle far past the cache.
constexpr std::size_t kPassThetas = 64;
/// Share of requests that repeat one of the last kRecent bindings.
constexpr double kRepeatShare = 0.25;
constexpr std::size_t kRecent = 32;
/// Requests per closed-loop step.
constexpr std::size_t kStepRequests = 64;
/// Open-loop reference rate (requests/s) for the latency metrics.
constexpr double kReferenceRate = 2000.0;
/// p99 limit for the rate ladder: about five times max_delay.
constexpr double kP99LimitUs = 1000.0;
const double kLadder[] = {2000,  4000,  8000,   16000,
                          32000, 64000, 128000, 256000};

struct Task {
  qml::QnnModel model;
  data::Dataset examples;
  serve::CircuitHandle handle;
};

data::Dataset make_examples(const std::string& task, std::uint64_t seed) {
  using Style = data::SyntheticImages::Style;
  if (task == "vowel4") return data::make_vowel4(seed).val.front(kExamples);
  const bool digits = task.rfind("mnist", 0) == 0;
  const int classes = task.back() == '2' ? 2 : 4;
  const double difficulty =
      digits ? 0.30 : (classes == 2 ? 0.25 : 0.28);  // data::make_* values
  data::SyntheticImages gen(digits ? Style::Digits : Style::Fashion, classes,
                            seed, difficulty);
  if (task == "mnist2") gen.set_templates({3, 6});
  return gen.make_dataset(kExamples);
}

struct World {
  std::vector<Task> tasks;
  /// Generator snapshots [task * kThetas + v], then validation-pass
  /// snapshots [5 * kThetas + task * kPassThetas + v].
  std::vector<std::vector<double>> thetas;
  std::vector<std::uint32_t> theta_task;
  std::unique_ptr<backend::StatevectorBackend> backend;
  std::unique_ptr<serve::ServeSession> session;
  serve::Client client;
};

struct Binding {
  std::uint32_t task, theta, example;
};

/// Seeded request generator: uniform over every binding in use, with a
/// stated share repeating one of the most recent bindings.
class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}
  Binding next() {
    Binding b{};
    if (!recent_.empty() && rng_.uniform() < kRepeatShare) {
      b = recent_[rng_() % recent_.size()];
    } else {
      b.task = static_cast<std::uint32_t>(rng_() % kNumTasks);
      b.theta = static_cast<std::uint32_t>(b.task * kThetas + rng_() % kThetas);
      b.example = static_cast<std::uint32_t>(rng_() % kExamples);
    }
    recent_.push_back(b);
    if (recent_.size() > kRecent) recent_.pop_front();
    return b;
  }
  /// Exponential inter-arrival gap for a Poisson process at `rate`.
  double gap_s(double rate) { return -std::log(1.0 - rng_.uniform()) / rate; }

 private:
  Prng rng_;
  std::deque<Binding> recent_;
};

struct Pending {
  std::future<std::vector<double>> fut;
  Binding binding;
  Clock::time_point due;
};

/// The first served result of every binding; every later result of the
/// same binding must equal it bit for bit, and verify() checks each
/// first result against a direct run.
struct Served {
  std::uint32_t task;
  std::vector<double> result;
};

struct ServeStats {
  std::unordered_map<std::uint64_t, Served> first;
  std::uint64_t served = 0;
  std::uint64_t repeat_mismatches = 0;
  std::uint64_t failed = 0;
  std::uint64_t closed_done = 0;
  RateMeter closed_rate{0.25};  // closed-loop requests per second
  Samples step_ms;              // closed-loop step times
  Samples latency_us;   // open loop at the reference rate, from due time
  Samples gen_late_us;  // submit time - due time
  std::size_t open_backlog = 0;
  Samples val_ms;
  std::uint64_t val_correct = 0, val_classified = 0;
};

std::uint64_t key(const Binding& b) {
  return (std::uint64_t{b.theta} << 32) | b.example;
}

/// Collects one result; returns it (empty when the request failed).
std::vector<double> finish(Pending& p, ServeStats& st) {
  std::vector<double> v;
  try {
    v = p.fut.get();
  } catch (...) {
    ++st.failed;
    return v;
  }
  ++st.served;
  const auto [it, fresh] =
      st.first.try_emplace(key(p.binding), Served{p.binding.task, v});
  if (!fresh && !bit_equal(it->second.result, v)) ++st.repeat_mismatches;
  return v;
}

Pending submit(World& w, const Binding& b) {
  Span s("client", "submit");
  Pending p;
  p.binding = b;
  p.fut = w.client.submit(w.tasks[b.task].handle, w.thetas[b.theta],
                          w.tasks[b.task].examples.features[b.example]);
  return p;
}

/// Closed loop in steps: each step submits kStepRequests requests at
/// once and waits for all of them, as a client classifying a batch would.
void closed_loop(World& w, Generator& gen, double seconds, std::size_t max_jobs,
                 ServeStats& st) {
  Span s("client", "closed_loop");
  std::vector<Pending> step;
  const auto t0 = Clock::now();
  st.closed_rate.observe(st.closed_done);
  for (std::size_t sent = 0; sent < max_jobs && seconds_since(t0) < seconds;
       sent += kStepRequests) {
    const auto step_start = Clock::now();
    step.clear();
    for (std::size_t i = 0; i < kStepRequests; ++i)
      step.push_back(submit(w, gen.next()));
    {
      Span c("client", "complete");
      for (auto& p : step) finish(p, st);
    }
    st.step_ms.add(ms_since(step_start));
    st.closed_done += kStepRequests;
    if (st.closed_rate.observe(st.closed_done)) st.step_ms.mark();
  }
}

/// Open loop: Poisson arrivals at `rate`, each timed from when it was
/// due. Between arrivals this thread blocks on the oldest outstanding
/// request, as a waiting client would, until kSpin before the next
/// arrival, then spins so it submits on time without holding a CPU.
/// Latencies are marked into 0.5 s chunks.
void open_loop(World& w, Generator& gen, double rate, double seconds,
               std::size_t max_jobs, Samples& latency_us, Samples& late_us,
               std::size_t& backlog, ServeStats& st) {
  constexpr auto kSpin = std::chrono::microseconds(150);
  constexpr auto kChunk = std::chrono::milliseconds(500);
  Span s("client", "open_loop");
  std::deque<Pending> out;  // submission order
  const auto t0 = Clock::now();
  auto due = t0;
  auto chunk_start = t0;
  std::size_t sent = 0;
  const auto collect = [&] {
    for (auto it = out.begin(); it != out.end();) {
      if (it->fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      latency_us.add(std::chrono::duration<double, std::micro>(
                         Clock::now() - it->due)
                         .count());
      {
        Span c("client", "complete");
        finish(*it, st);
      }
      it = out.erase(it);
    }
    if (Clock::now() - chunk_start >= kChunk) {
      latency_us.mark();
      chunk_start = Clock::now();
    }
  };
  while (sent < max_jobs && due - t0 < std::chrono::duration<double>(seconds)) {
    for (;;) {
      collect();
      const auto now = Clock::now();
      if (now >= due) break;
      if (now >= due - kSpin) continue;
      if (out.empty())
        std::this_thread::sleep_until(due - kSpin);
      else
        out.front().fut.wait_until(due - kSpin);
    }
    Pending p = submit(w, gen.next());
    late_us.add(
        std::chrono::duration<double, std::micro>(Clock::now() - due).count());
    p.due = due;
    out.push_back(std::move(p));
    ++sent;
    due += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gen.gap_s(rate)));
  }
  backlog = out.size();
  while (!out.empty()) {
    out.front().fut.wait();
    collect();
  }
}

/// Served validation pass: every example of one task under one of the
/// task's pass snapshots, submitted at once and classified. The pass
/// bindings far outnumber the cache, so passes mostly execute.
void val_pass(World& w, Prng& rng, ServeStats& st) {
  const auto t = static_cast<std::uint32_t>(rng() % kNumTasks);
  const auto theta = static_cast<std::uint32_t>(
      kNumTasks * kThetas + t * kPassThetas + rng() % kPassThetas);
  const auto& model = w.tasks[t].model;
  const auto t0 = Clock::now();
  {
    Span s("client", "val_pass");
    std::vector<Pending> out;
    for (std::uint32_t x = 0; x < kExamples; ++x)
      out.push_back(submit(w, Binding{t, theta, x}));
    Span c("client", "complete");
    for (std::uint32_t x = 0; x < kExamples; ++x) {
      const auto r = finish(out[x], st);
      if (r.empty()) continue;
      const auto logits = model.head().forward(r);
      st.val_correct += std::max_element(logits.begin(), logits.end()) -
                            logits.begin() ==
                        w.tasks[t].examples.labels[x];
      ++st.val_classified;
    }
  }
  st.val_ms.add(ms_since(t0));
}

/// The three phases of one window, splitting `seconds` between them.
void run_phases(World& w, std::uint64_t seed, double seconds, bool traced,
                ServeStats& st) {
  Generator gen(mix_seed(seed, 10));
  Prng val_rng(mix_seed(seed, 11));
  // Traced windows cap each phase at 20,000 jobs, which keeps the trace
  // small enough to analyse and inside the rings.
  const std::size_t cap = traced ? 20000 : ~std::size_t{0};
  Span window("bench", "window");
  closed_loop(w, gen, 0.35 * seconds, cap, st);
  open_loop(w, gen, kReferenceRate, 0.45 * seconds, cap, st.latency_us,
            st.gen_late_us, st.open_backlog, st);
  const auto t0 = Clock::now();
  auto chunk_start = t0;
  for (std::size_t jobs = 0; jobs < cap; jobs += kExamples) {
    val_pass(w, val_rng, st);
    if (seconds_since(chunk_start) >= 0.5) {
      st.val_ms.mark();
      chunk_start = Clock::now();
    }
    if (seconds_since(t0) >= 0.2 * seconds) break;
  }
}

/// Highest ladder rate whose open-loop p99 (from due time) meets the
/// limit; later rungs are not tried once one fails.
double max_rate(World& w, std::uint64_t seed, double rung_s, ServeStats& st) {
  Generator gen(mix_seed(seed, 12));
  double best = 0.0;
  for (const double rate : kLadder) {
    Samples lat, late;
    std::size_t backlog = 0;
    open_loop(w, gen, rate, rung_s, ~std::size_t{0}, lat, late, backlog, st);
    if (lat.quantile(0.99) > kP99LimitUs) break;
    best = rate;
  }
  return best;
}

/// Every served binding's result against a direct run of the same
/// binding on a fresh exact backend, bit for bit.
std::size_t verify(const World& w, const ServeStats& st) {
  backend::StatevectorBackend fresh;
  std::size_t mismatches = 0;
  for (const auto& [k, s] : st.first) {
    const auto& task = w.tasks[s.task];
    const auto direct =
        fresh.run(task.model.circuit(), w.thetas[k >> 32],
                  task.examples.features[k & 0xFFFFFFFFu]);
    if (!bit_equal(direct, s.result)) ++mismatches;
  }
  return mismatches;
}

std::unique_ptr<World> set_up(std::uint64_t seed, Samples& data_ms,
                              Samples& model_ms) {
  auto w = std::make_unique<World>();
  std::vector<data::Dataset> examples;
  data_ms.add(time_ms([&] {
    for (std::size_t t = 0; t < kNumTasks; ++t)
      examples.push_back(make_examples(kTasks[t], mix_seed(seed, 20 + t)));
  }));
  model_ms.add(time_ms([&] {
    for (std::size_t t = 0; t < kNumTasks; ++t)
      w->tasks.push_back(Task{qml::make_task_model(kTasks[t]),
                              std::move(examples[t]), {}});
  }));
  Prng rng(mix_seed(seed, 30));
  for (const std::size_t per_task : {kThetas, kPassThetas})
    for (std::uint32_t t = 0; t < kNumTasks; ++t)
      for (std::size_t v = 0; v < per_task; ++v) {
        w->thetas.push_back(w->tasks[t].model.init_params(rng));
        w->theta_task.push_back(t);
      }
  w->backend = std::make_unique<backend::StatevectorBackend>();
  sim::lane_calibration();
  serve::ServeOptions so;
  so.exec_threads = 1;  // generator + dispatcher + one drain lane
  so.result_cache_capacity = kCacheCapacity;
  so.fold_duplicates = true;
  w->session = std::make_unique<serve::ServeSession>(*w->backend, so);
  for (auto& task : w->tasks)
    task.handle = w->session->register_circuit(task.model.circuit());
  w->client = w->session->client();
  // Warm-up batch: one request per (task, snapshot) through the session.
  std::vector<Pending> warm;
  for (std::uint32_t th = 0; th < kNumTasks * kThetas; ++th)
    warm.push_back(submit(*w, Binding{w->theta_task[th], th, 0}));
  ServeStats scratch;
  for (auto& p : warm) finish(p, scratch);
  return w;
}

void report_serve_layers(Report& r, const ObsSnapshot& d,
                         const ServeStats& st) {
  const double submitted = static_cast<double>(d.serve_submitted);
  const double flushes =
      static_cast<double>(d.serve_deadline_flushes + d.serve_size_flushes);
  r.metric("serve.batch_occupancy",
           d.serve_batches ? static_cast<double>(d.serve_coalesced) /
                                 static_cast<double>(d.serve_batches)
                           : 0.0,
           "jobs", d.serve_batches);
  r.metric("serve.deadline_flush_ratio",
           flushes > 0 ? d.serve_deadline_flushes / flushes : 0.0, "ratio",
           d.serve_batches);
  r.metric("serve.cache_hit_ratio",
           submitted > 0 ? d.serve_cache_hits / submitted : 0.0, "ratio",
           d.serve_submitted);
  r.metric("serve.folded_ratio",
           submitted > 0 ? d.serve_folded / submitted : 0.0, "ratio",
           d.serve_submitted);
  r.metric("serve.gen_late_us_p99", st.gen_late_us.quantile(0.99), "us",
           st.gen_late_us.size());
}

}  // namespace

void run_serve(const Options& opt, Report& r) {
  Samples data_ms, model_ms;
  std::unique_ptr<World> world;
  const Samples setup_s = repeat_setup(
      opt.smoke,
      [&] {
        world.reset();
        sim::reset_lane_calibration();
      },
      [&] { world = set_up(opt.seed, data_ms, model_ms); });
  World& w = *world;
  r.context("lane_calibration", lane_calibration_string());

  const double window_s = opt.smoke ? 0.05 : (opt.trace ? opt.seconds / 2
                                                        : opt.seconds);
  ServeStats st;
  const std::uint64_t inf0 = w.backend->inference_count();
  run_phases(w, opt.seed, window_s, false, st);
  const double runs_per_s = st.closed_rate.rate();
  double rate = 0.0;
  if (opt.trace) rate = max_rate(w, opt.seed, opt.smoke ? 0.01 : 0.3, st);

  const auto gate_results = [&](const ServeStats& s, const char* name) {
    const std::size_t bad = verify(w, s) + s.repeat_mismatches;
    r.gate(name, bad == 0 && s.failed == 0 && s.served > 0,
           std::to_string(s.served) + " served results of " +
               std::to_string(s.first.size()) + " bindings, " +
               std::to_string(bad) + " differ from a direct run, " +
               std::to_string(s.failed) + " failed");
    r.add_attempted(s.served + s.failed, s.failed);
  };
  gate_results(st, "serve_results_equal_direct_run");
  r.context("serve_p99_us_at_reference_rate", st.latency_us.quantile(0.99));
  r.context("serve_val_accuracy",
            static_cast<double>(st.val_correct) / st.val_classified);
  r.context("serve_open_loop_backlog", static_cast<double>(st.open_backlog));
  r.context("serve_backend_evals",
            static_cast<double>(w.backend->inference_count() - inf0));

  if (!opt.trace) {
    r.metric("setup_s", setup_s.median(), "s", setup_s.size());
    r.metric("runs_per_s", runs_per_s, "1/s", st.closed_rate.samples());
    r.metric("step_ms_p50", st.step_ms.chunk_quantile(0.5), "ms",
             st.step_ms.size());
    r.metric("step_ms_p90", st.step_ms.chunk_quantile(0.9), "ms",
             st.step_ms.size());
    r.metric("val_pass_ms_p50", st.val_ms.chunk_quantile(0.5), "ms",
             st.val_ms.size());
    r.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    return;
  }

  r.metric("serve.max_rate", rate, "1/s", std::size(kLadder));
  r.metric("serve.p50_us", st.latency_us.quantile(0.5), "us",
           st.latency_us.size());
  r.metric("serve.p99_us", st.latency_us.quantile(0.99), "us",
           st.latency_us.size());
  r.metric("data.generate_ms", data_ms.median(), "ms", data_ms.size());
  r.metric("exec.compile_ms", model_ms.median(), "ms", model_ms.size());

  ServeStats ts;
  const auto before = ObsSnapshot::take();
  const std::uint64_t tinf0 = w.backend->inference_count();
  start_tracing(std::size_t{1} << 20);
  run_phases(w, mix_seed(opt.seed, 13), window_s, true, ts);
  const double traced_rate = ts.closed_rate.rate();
  finish_tracing(opt, r);
  const auto d = ObsSnapshot::take() - before;
  gate_results(ts, "serve_traced_results_equal_direct_run");
  report_backend_layers(r, d, w.backend->inference_count() - tinf0);
  report_serve_layers(r, d, ts);
  r.metric("trace.overhead_frac", runs_per_s / traced_rate - 1.0, "ratio",
           ts.closed_done);
}

}  // namespace perfbench
