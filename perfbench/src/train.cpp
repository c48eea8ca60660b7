// Training workloads: the paper's on-chip QC-Train / QC-Train-PGP step
// (Alg. 1), rebuilt from the public pieces TrainingEngine composes so
// each call can be timed and traced from outside the library.

#include <memory>
#include <set>

#include "common.hpp"
#include "qoc/backend/backend.hpp"
#include "qoc/data/images.hpp"
#include "qoc/noise/device_model.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/sim/cost_model.hpp"
#include "qoc/train/training_engine.hpp"
#include "qoc/transpile/transpile.hpp"

namespace perfbench {
namespace {

using namespace qoc;

// The QC-Train-PGP workload: MNIST-4 on the ibmq_jakarta noise model,
// w_a = 1, w_p = 2, r = 0.5, fanned over 4 threads.
constexpr unsigned kThreads = 4;
/// Floor on the mean final validation accuracy of completed episodes
/// (chance is 0.25).
constexpr double kAccuracyFloor = 0.28;

noise::DeviceModel device() { return noise::DeviceModel::ibmq_jakarta(); }

// The mnist4_onchip_pgp example's settings.
constexpr int kEpisodeSteps = 30;
constexpr std::size_t kBatch = 6;
constexpr int kEvalEvery = 6;
constexpr std::size_t kEvalExamples = 50;
constexpr int kTrajectories = 8;
constexpr int kShots = 256;

train::TrainingConfig make_config(int steps, int eval_every,
                                  std::uint64_t seed) {
  train::TrainingConfig cfg;
  cfg.steps = steps;
  cfg.batch_size = kBatch;
  cfg.optimizer = train::OptimizerKind::Adam;
  cfg.eval_every = eval_every;
  cfg.max_eval_examples = kEvalExamples;
  cfg.seed = seed;
  cfg.threads = kThreads;
  cfg.use_pruning = true;
  cfg.pruner.accumulation_window = 1;
  cfg.pruner.pruning_window = 2;
  cfg.pruner.ratio = 0.5;
  return cfg;
}

std::unique_ptr<backend::NoisyBackend> make_backend(std::uint64_t seed) {
  backend::NoisyBackendOptions opt;
  opt.trajectories = kTrajectories;
  opt.shots = kShots;
  opt.seed = seed;
  return std::make_unique<backend::NoisyBackend>(device(), opt);
}

/// The task's fixed paper dataset (the library's default data seed): the
/// benchmark seed drives initialisation, sampling, pruning and noise,
/// not the images, whose zero pixels change the lowered circuits.
data::TaskData make_data() { return data::make_mnist4(); }

/// Per-window measurements of the rebuilt loop.
struct TrainStats {
  Samples step_ms;        // sample + mask + gradient + observe + optimizer
  Samples gradient_ms;    // ParameterShiftEngine::batch_gradient
  Samples gradient_run_batch_ms;  // backend run_batch inside the gradient
  Samples val_ms;         // whole validation pass (subsample + accuracy)
  Samples accuracy_ms;    // QnnModel::accuracy
  std::uint64_t evals = 0;          // backend inference delta, all calls
  std::uint64_t gradient_evals = 0;
  std::uint64_t full_gradient_evals = 0;  // what an all-true mask costs
  std::uint64_t val_evals = 0;
  std::uint64_t count_mismatches = 0;
  std::vector<double> final_accuracy;  // per completed episode
  RateMeter rate{1.0};  // circuit runs per second, over 1 s chunks
};

/// TrainingEngine::run, one step at a time: the same RNG draw order,
/// the same calls, in the same order, so theta and validation accuracy
/// match the engine bit for bit.
class RebuiltTrainer {
 public:
  RebuiltTrainer(const qml::QnnModel& model, backend::Backend& backend,
                 const data::TaskData& data, train::TrainingConfig cfg)
      : model_(model), backend_(backend), data_(data), cfg_(cfg),
        rng_(cfg.seed), theta_(model.init_params(rng_)),
        shift_(backend, model),
        optimizer_(train::make_optimizer(cfg.optimizer, cfg.lr_start)),
        scheduler_(cfg.lr_start, cfg.lr_end, cfg.steps),
        sampler_(data.train, cfg.batch_size, rng_()),
        pruner_(model.num_params(), pruner_config(cfg), rng_()),
        eval_rng_(rng_()) {
    shift_.set_threads(cfg.threads);
    for (int i = 0; i < model.num_params(); ++i)
      occurrences_.push_back(model.circuit().ops_for_param(i).size());
  }

  bool done() const { return step_ > cfg_.steps; }
  const std::vector<double>& theta() const { return theta_; }
  const std::vector<double>& val_history() const { return val_history_; }

  /// One Alg. 1 step, plus the validation pass when it is due.
  void step(TrainStats& st) {
    const auto& hist =
        obs::Registry::global().histogram("qoc_backend_run_batch_ns");
    const std::uint64_t inf0 = backend_.inference_count();
    const auto t0 = Clock::now();
    double grad_ms = 0.0;
    std::uint64_t rb_ns = 0;
    std::vector<bool> mask;
    {
      Span s("train", "step");
      optimizer_->set_learning_rate(scheduler_.at(step_ - 1));
      std::vector<std::size_t> batch;
      {
        Span s2("train", "sample");
        batch = sampler_.next();
      }
      {
        Span s2("train", "mask");
        mask = pruner_.next_mask();
      }
      train::BatchGradient bg;
      {
        Span s2("param_shift", "batch_gradient");
        const std::uint64_t h0 = hist.sum_ns();
        const auto g0 = Clock::now();
        bg = shift_.batch_gradient(theta_, data_.train, batch, &mask);
        grad_ms = ms_since(g0);
        rb_ns = hist.sum_ns() - h0;
      }
      {
        Span s2("train", "observe");
        pruner_.observe(bg.grad);
      }
      {
        Span s2("train", "optimizer");
        optimizer_->step(theta_, bg.grad, &mask);
      }
    }
    st.step_ms.add(ms_since(t0));
    st.gradient_ms.add(grad_ms);
    st.gradient_run_batch_ms.add(rb_ns / 1e6);

    // Analytic circuit-run count: batch x (1 + 2 x active occurrences).
    std::uint64_t active = 0, all = 0;
    for (std::size_t i = 0; i < occurrences_.size(); ++i) {
      all += occurrences_[i];
      if (mask[i]) active += occurrences_[i];
    }
    const std::uint64_t expected = cfg_.batch_size * (1 + 2 * active);
    const std::uint64_t got = backend_.inference_count() - inf0;
    if (got != expected) ++st.count_mismatches;
    st.gradient_evals += got;
    st.full_gradient_evals += cfg_.batch_size * (1 + 2 * all);
    st.evals += got;

    const bool eval_now = (cfg_.eval_every > 0 && step_ % cfg_.eval_every == 0) ||
                          step_ == cfg_.steps;
    if (eval_now) validate(st);
    ++step_;
  }

 private:
  static train::PrunerConfig pruner_config(const train::TrainingConfig& cfg) {
    if (cfg.use_pruning) return cfg.pruner;
    train::PrunerConfig p;
    p.pruning_window = 0;
    p.ratio = 0.0;
    return p;
  }

  void validate(TrainStats& st) {
    const std::uint64_t inf0 = backend_.inference_count();
    const auto t0 = Clock::now();
    double acc = 0.0;
    double acc_ms = 0.0;
    std::size_t n = data_.val.size();
    {
      Span s("train", "validate");
      data::Dataset sub;
      const data::Dataset* set = &data_.val;
      if (cfg_.max_eval_examples > 0 &&
          data_.val.size() > cfg_.max_eval_examples) {
        sub = data_.val.sample(cfg_.max_eval_examples, eval_rng_);
        set = &sub;
      }
      n = set->size();
      Span s2("qml", "accuracy");
      const auto a0 = Clock::now();
      acc = model_.accuracy(backend_, theta_, *set, cfg_.threads);
      acc_ms = ms_since(a0);
    }
    st.val_ms.add(ms_since(t0));
    st.accuracy_ms.add(acc_ms);
    const std::uint64_t got = backend_.inference_count() - inf0;
    if (got != n) ++st.count_mismatches;
    st.val_evals += got;
    st.evals += got;
    val_history_.push_back(acc);
    if (step_ == cfg_.steps) st.final_accuracy.push_back(acc);
  }

  const qml::QnnModel& model_;
  backend::Backend& backend_;
  const data::TaskData& data_;
  train::TrainingConfig cfg_;
  Prng rng_;
  std::vector<double> theta_;
  train::ParameterShiftEngine shift_;
  std::unique_ptr<train::Optimizer> optimizer_;
  train::CosineScheduler scheduler_;
  data::BatchSampler sampler_;
  train::GradientPruner pruner_;
  Prng eval_rng_;
  std::vector<std::size_t> occurrences_;
  std::vector<double> val_history_;
  int step_ = 1;
};

/// Episodes of the rebuilt loop on `backend` until `seconds` have passed
/// (at least `min_steps` steps); episode e is seeded from (seed, e).
void run_window(const qml::QnnModel& model, backend::Backend& backend,
                const data::TaskData& data, std::uint64_t seed, double seconds,
                int episode_steps, int min_steps, TrainStats& st) {
  const auto t0 = Clock::now();
  int steps = 0;
  Span window("bench", "window");
  st.rate.observe(st.evals);
  for (std::uint64_t e = 0;; ++e) {
    RebuiltTrainer trainer(
        model, backend, data,
        make_config(episode_steps, kEvalEvery, mix_seed(seed, 100 + e)));
    while (!trainer.done()) {
      trainer.step(st);
      if (st.rate.observe(st.evals)) {
        st.step_ms.mark();
        st.val_ms.mark();
      }
      ++steps;
      if (steps >= min_steps && seconds_since(t0) >= seconds) return;
    }
  }
}

}  // namespace

void run_train(const Options& opt, Report& r) {
  // ---- set-up, repeated; the median is setup_s -------------------------
  // Each repetition pays what a fresh process pays: data generation,
  // model construction (circuit + compiled plan), backend construction,
  // lane calibration and a warm-up gradient batch that fills the
  // transpile and pattern caches and starts the thread pool.
  Samples data_ms, model_ms;
  std::unique_ptr<data::TaskData> data;
  std::unique_ptr<qml::QnnModel> model;
  std::unique_ptr<backend::NoisyBackend> backend;
  const Samples setup_s = repeat_setup(
      opt.smoke,
      [&] {
        backend.reset();
        model.reset();
        data.reset();
        sim::reset_lane_calibration();
      },
      [&] {
        data_ms.add(time_ms([&] {
          data = std::make_unique<data::TaskData>(make_data());
        }));
        model_ms.add(time_ms([&] {
          model =
              std::make_unique<qml::QnnModel>(qml::make_mnist4_model());
        }));
        backend = make_backend(mix_seed(opt.seed, 1));
        sim::lane_calibration();
        train::ParameterShiftEngine warm(*backend, *model);
        warm.set_threads(kThreads);
        const std::vector<double> theta(model->num_params(), 0.1);
        const std::size_t idx[] = {0};
        warm.batch_gradient(theta, data->train, idx);
      });
  r.context("lane_calibration", lane_calibration_string());

  // ---- gate: rebuilt loop == TrainingEngine::run, bit for bit ----------
  {
    const int steps = opt.smoke ? 3 : 6;
    const auto cfg = make_config(steps, 3, mix_seed(opt.seed, 2));
    auto be_engine = make_backend(mix_seed(opt.seed, 3));
    auto be_rebuilt = make_backend(mix_seed(opt.seed, 3));
    train::TrainingEngine engine(*model, *be_engine, *be_engine, data->train,
                                 data->val, cfg);
    const auto ref = engine.run();
    std::vector<double> ref_acc;
    for (const auto& rec : ref.history) ref_acc.push_back(rec.val_accuracy);
    RebuiltTrainer rebuilt(*model, *be_rebuilt, *data, cfg);
    TrainStats scratch;
    while (!rebuilt.done()) rebuilt.step(scratch);
    r.gate("train_rebuilt_equals_engine",
           bit_equal(ref.theta, rebuilt.theta()) &&
               bit_equal(ref_acc, rebuilt.val_history()) &&
               be_engine->inference_count() == be_rebuilt->inference_count(),
           std::to_string(steps) + " steps, " +
               std::to_string(ref_acc.size()) + " validation passes, " +
               std::to_string(ref.total_inferences) + " runs");
    r.gate("train_gate_run_counts", scratch.count_mismatches == 0,
           std::to_string(scratch.count_mismatches) + " mismatching calls");
  }

  const int episode_steps = opt.smoke ? 6 : kEpisodeSteps;
  const int min_steps = opt.smoke ? kEvalEvery : 1;
  const double window_s = opt.trace ? opt.seconds / 2 : opt.seconds;

  // ---- timed window, untraced: the end-to-end metrics ------------------
  TrainStats st;
  run_window(*model, *backend, *data, opt.seed, opt.smoke ? 0.0 : window_s,
             episode_steps, min_steps, st);
  const double runs_per_s = st.rate.rate();
  r.add_attempted(st.step_ms.size() + st.val_ms.size());
  r.gate("train_run_counts_analytic", st.count_mismatches == 0,
         std::to_string(st.step_ms.size()) + " steps, " +
             std::to_string(st.val_ms.size()) + " passes, " +
             std::to_string(st.count_mismatches) + " mismatches");
  if (!st.final_accuracy.empty()) {
    Samples acc;
    for (const double a : st.final_accuracy) acc.add(a);
    r.gate("train_final_accuracy_floor", acc.mean() >= kAccuracyFloor,
           "mean final validation accuracy " + std::to_string(acc.mean()) +
               " over " + std::to_string(acc.size()) + " episodes, floor " +
               std::to_string(kAccuracyFloor));
    r.context("final_val_accuracy_mean", acc.mean());
  }

  if (!opt.trace) {
    r.metric("setup_s", setup_s.median(), "s", setup_s.size());
    r.metric("runs_per_s", runs_per_s, "1/s", st.rate.samples());
    r.metric("step_ms_p50", st.step_ms.chunk_quantile(0.5), "ms",
             st.step_ms.size());
    r.metric("step_ms_p90", st.step_ms.chunk_quantile(0.9), "ms",
             st.step_ms.size());
    r.metric("val_pass_ms_p50", st.val_ms.chunk_quantile(0.5), "ms",
             st.val_ms.size());
    r.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    return;
  }

  // ---- traced window: the per-layer metrics ----------------------------
  r.metric("data.generate_ms", data_ms.median(), "ms", data_ms.size());
  r.metric("exec.compile_ms", model_ms.median(), "ms", model_ms.size());
  r.metric("transpile.cold_route_ms", time_ms([&] {
             transpile::route_template(model->circuit(), device());
           }),
           "ms", 1);
  {
    // Register width vs touched qubits, computed from one transpile.
    const std::vector<double> theta(model->num_params(), 0.1);
    const auto t = transpile::transpile(model->circuit(), theta,
                                        data->val.features[0], device());
    std::set<int> touched;
    for (const auto& op : t.ops) touched.insert(op.qubits.begin(), op.qubits.end());
    r.metric("traj.device_qubits", device().n_qubits, "count", 1);
    r.metric("traj.touched_qubits", static_cast<double>(touched.size()),
             "count", 1);
    r.metric("traj.physical_gates_per_eval", static_cast<double>(t.ops.size()),
             "count", 1);
    r.metric("traj.trajectories", kTrajectories, "count", 1);
  }

  TrainStats ts;
  const auto before = ObsSnapshot::take();
  std::int64_t pending_max = 0;
  start_tracing(std::size_t{1} << 20);
  {
    PendingTicketsProbe probe;
    run_window(*model, *backend, *data, mix_seed(opt.seed, 4),
               opt.smoke ? 0.0 : window_s, episode_steps, min_steps, ts);
    pending_max = probe.max();
  }
  finish_tracing(opt, r);
  const auto d = ObsSnapshot::take() - before;
  const std::size_t steps = ts.step_ms.size();
  r.gate("train_traced_run_counts_analytic", ts.count_mismatches == 0,
         std::to_string(ts.count_mismatches) + " mismatches");

  r.metric("train.self_ms_per_step",
           (ts.step_ms.sum() - ts.gradient_ms.sum()) / steps, "ms", steps);
  r.metric("train.pruned_eval_frac",
           1.0 - static_cast<double>(ts.gradient_evals) /
                     static_cast<double>(ts.full_gradient_evals),
           "ratio", steps);
  r.metric("param_shift.batch_gradient_ms", ts.gradient_ms.mean(), "ms", steps);
  r.metric("param_shift.self_ms_per_step",
           (ts.gradient_ms.sum() - ts.gradient_run_batch_ms.sum()) / steps,
           "ms", steps);
  r.metric("param_shift.evals_per_step",
           static_cast<double>(ts.gradient_evals) / steps, "count", steps);
  report_backend_layers(r, d, ts.evals);
  r.metric("qml.accuracy_ms", ts.accuracy_ms.mean(), "ms", ts.accuracy_ms.size());
  r.metric("qml.evals_per_pass",
           ts.val_ms.empty() ? 0.0
                             : static_cast<double>(ts.val_evals) / ts.val_ms.size(),
           "count", ts.val_ms.size());
  r.metric("pool.pending_tickets_max", static_cast<double>(pending_max), "count",
           1);
  r.metric("trace.overhead_frac", runs_per_s / ts.rate.rate() - 1.0,
           "ratio", steps);
}

}  // namespace perfbench
