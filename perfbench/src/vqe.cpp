// VQE workload: VqeSolver::run on the minimal H2 Hamiltonian with shot
// sampling, gate noise and gradient pruning (the vqe_h2 example's
// on-chip setting), rebuilt from EnergyEstimator, the pruner and the
// optimizer so each call is timed and traced from outside.

#include <algorithm>
#include <memory>
#include <optional>

#include "common.hpp"
#include "qoc/vqe/vqe.hpp"

namespace perfbench {
namespace {

using namespace qoc;

constexpr int kEpisodeSteps = 60;
constexpr unsigned kThreads = 1;
/// Tolerance on the best energy of an episode vs the exact ground
/// energy (Ha): 512 shots and 2e-3 gate noise bound how close it gets
/// (observed worst case about 0.016 Ha over 1,200 episodes).
constexpr double kEnergyTolerance = 0.05;

vqe::EstimatorOptions estimator_options(std::uint64_t seed) {
  vqe::EstimatorOptions o;
  o.shots = 512;
  o.gate_noise = 2e-3;
  o.seed = seed;
  return o;
}

vqe::VqeConfig make_config(int steps, std::uint64_t seed) {
  vqe::VqeConfig cfg;
  cfg.steps = steps;
  cfg.seed = seed;
  cfg.threads = kThreads;
  cfg.use_pruning = true;
  cfg.pruner.accumulation_window = 1;
  cfg.pruner.pruning_window = 2;
  cfg.pruner.ratio = 0.5;
  return cfg;
}

struct VqeStats {
  Samples step_ms;      // mask + energy sweep + observe + optimizer
  Samples energies_ms;  // EnergyEstimator::energies (the gradient sweep)
  Samples energy_ms;    // EnergyEstimator::energy (per-step readout)
  std::uint64_t executions = 0;
  std::uint64_t sweep_executions = 0;
  std::uint64_t count_mismatches = 0;
  std::vector<double> best_energy;  // per completed episode
  RateMeter rate{0.5};  // estimator executions per second, 0.5 s chunks
};

constexpr double kHalfPi = 1.5707963267948966;

/// VqeSolver::run, one step at a time, with the solver's exact draw and
/// call order so theta and the energy history match it bit for bit.
class RebuiltVqe {
 public:
  RebuiltVqe(const vqe::Hamiltonian& h, const circuit::Circuit& ansatz,
             vqe::EstimatorOptions eopt, vqe::VqeConfig cfg)
      : estimator_(h, eopt), ansatz_(ansatz), cfg_(cfg), rng_(cfg.seed),
        groups_(vqe::compile_observable(h).groups().size()) {
    const int n = ansatz_.num_trainable();
    theta_.resize(static_cast<std::size_t>(n));
    for (auto& t : theta_) t = rng_.uniform(-0.5, 0.5);
    optimizer_ = train::make_optimizer(cfg.optimizer, cfg.lr_start);
    scheduler_.emplace(cfg.lr_start, cfg.lr_end, cfg.steps);
    train::PrunerConfig pcfg = cfg.pruner;
    if (!cfg.use_pruning) {
      pcfg = train::PrunerConfig{};
      pcfg.pruning_window = 0;
    }
    pruner_.emplace(n, pcfg, rng_());
  }

  bool done() const { return step_ > cfg_.steps; }
  const std::vector<double>& theta() const { return theta_; }
  const std::vector<double>& energies() const { return history_; }

  void step(VqeStats& st) {
    const int n = ansatz_.num_trainable();
    const std::uint64_t ex0 = estimator_.executions();
    std::size_t active = 0;
    const auto t0 = Clock::now();
    double sweep_ms = 0.0;
    {
      Span s("vqe", "step");
      optimizer_->set_learning_rate(scheduler_->at(step_ - 1));
      std::vector<bool> mask;
      {
        Span s2("vqe", "mask");
        mask = pruner_->next_mask();
      }
      std::vector<std::pair<int, std::size_t>> shifts;
      for (int i = 0; i < n; ++i) {
        if (!mask[static_cast<std::size_t>(i)]) continue;
        for (const std::size_t op : ansatz_.ops_for_param(i))
          shifts.emplace_back(i, op);
      }
      active = shifts.size();
      std::vector<exec::Evaluation> evals;
      evals.reserve(2 * shifts.size());
      for (const auto& [i, op] : shifts) {
        evals.push_back({theta_, {}, op, kHalfPi});
        evals.push_back({theta_, {}, op, -kHalfPi});
      }
      std::vector<double> e;
      {
        Span s2("vqe", "energies");
        const auto e0 = Clock::now();
        e = estimator_.energies(ansatz_, evals, cfg_.threads);
        sweep_ms = ms_since(e0);
      }
      std::vector<double> grad(static_cast<std::size_t>(n), 0.0);
      for (std::size_t s = 0; s < shifts.size(); ++s)
        grad[static_cast<std::size_t>(shifts[s].first)] +=
            0.5 * (e[2 * s] - e[2 * s + 1]);
      {
        Span s2("vqe", "observe");
        pruner_->observe(grad);
      }
      {
        Span s2("vqe", "optimizer");
        optimizer_->step(theta_, grad, &mask);
      }
    }
    st.step_ms.add(ms_since(t0));
    st.energies_ms.add(sweep_ms);
    const std::uint64_t sweep = estimator_.executions() - ex0;
    // One measured execution per commuting group per evaluation.
    if (sweep != groups_ * 2 * active) ++st.count_mismatches;
    st.sweep_executions += sweep;

    const auto r0 = Clock::now();
    double energy = 0.0;
    {
      Span s("vqe", "energy");
      energy = estimator_.energy(ansatz_, theta_);
    }
    st.energy_ms.add(ms_since(r0));
    const std::uint64_t total = estimator_.executions() - ex0;
    if (total != sweep + groups_) ++st.count_mismatches;
    st.executions += total;
    history_.push_back(energy);
    if (step_ == cfg_.steps) {
      double best = history_.front();
      for (const double v : history_) best = std::min(best, v);
      st.best_energy.push_back(best);
    }
    ++step_;
  }

 private:
  vqe::EnergyEstimator estimator_;
  const circuit::Circuit& ansatz_;
  vqe::VqeConfig cfg_;
  Prng rng_;
  std::size_t groups_;
  std::vector<double> theta_;
  std::unique_ptr<train::Optimizer> optimizer_;
  std::optional<train::CosineScheduler> scheduler_;
  std::optional<train::GradientPruner> pruner_;
  std::vector<double> history_;
  int step_ = 1;
};

void run_window(const vqe::Hamiltonian& h, const circuit::Circuit& ansatz,
                std::uint64_t seed, double seconds, int episode_steps,
                int min_steps, VqeStats& st) {
  const auto t0 = Clock::now();
  int steps = 0;
  Span window("bench", "window");
  st.rate.observe(st.executions);
  for (std::uint64_t e = 0;; ++e) {
    RebuiltVqe solver(h, ansatz, estimator_options(mix_seed(seed, 200 + e)),
                      make_config(episode_steps, mix_seed(seed, 300 + e)));
    while (!solver.done()) {
      solver.step(st);
      if (st.rate.observe(st.executions)) {
        st.step_ms.mark();
        st.energy_ms.mark();
      }
      ++steps;
      if (steps >= min_steps && seconds_since(t0) >= seconds) return;
    }
  }
}

}  // namespace

void run_vqe(const Options& opt, Report& r) {
  // ---- set-up, repeated (it is about a millisecond); median is setup_s --
  // Hamiltonian, observable grouping, ansatz and a warm-up gradient sweep
  // that compiles the estimator's plan.
  std::optional<vqe::Hamiltonian> h;
  std::optional<circuit::Circuit> ansatz;
  const Samples setup_s = repeat_setup(
      opt.smoke, [] {},
      [&] {
        h.emplace(vqe::Hamiltonian::h2_minimal());
        ansatz.emplace(vqe::VqeSolver::hardware_efficient_ansatz(2, 2));
        RebuiltVqe warm(*h, *ansatz, estimator_options(mix_seed(opt.seed, 5)),
                        make_config(1, mix_seed(opt.seed, 6)));
        VqeStats scratch;
        warm.step(scratch);
      });
  const double exact = h->exact_ground_energy();
  r.context("lane_calibration", lane_calibration_string());

  // ---- gate: rebuilt loop == VqeSolver::run, bit for bit ---------------
  {
    const int steps = kEpisodeSteps;
    const auto eopt = estimator_options(mix_seed(opt.seed, 7));
    const auto cfg = make_config(steps, mix_seed(opt.seed, 8));
    vqe::VqeSolver solver(vqe::EnergyEstimator(*h, eopt), *ansatz, cfg);
    const auto ref = solver.run();
    std::vector<double> ref_energy;
    for (const auto& rec : ref.history) ref_energy.push_back(rec.energy);
    RebuiltVqe rebuilt(*h, *ansatz, eopt, cfg);
    VqeStats scratch;
    while (!rebuilt.done()) rebuilt.step(scratch);
    r.gate("vqe_rebuilt_equals_solver",
           bit_equal(ref.theta, rebuilt.theta()) &&
               bit_equal(ref_energy, rebuilt.energies()) &&
               ref.total_executions == scratch.executions,
           std::to_string(steps) + " steps, " +
               std::to_string(ref.total_executions) + " executions");
  }

  // Episodes cost ~30 ms, so even smoke runs complete one and check the
  // energy against the tolerance.
  const int episode_steps = kEpisodeSteps;
  const int min_steps = opt.smoke ? kEpisodeSteps : 1;
  const double window_s = opt.trace ? opt.seconds / 2 : opt.seconds;

  VqeStats st;
  run_window(*h, *ansatz, opt.seed, opt.smoke ? 0.0 : window_s, episode_steps,
             min_steps, st);
  const double runs_per_s = st.rate.rate();
  r.add_attempted(st.step_ms.size());
  r.gate("vqe_execution_counts_analytic", st.count_mismatches == 0,
         std::to_string(st.step_ms.size()) + " steps, " +
             std::to_string(st.count_mismatches) + " mismatches");
  if (!st.best_energy.empty()) {
    double worst = -1e300;
    for (const double e : st.best_energy) worst = std::max(worst, e - exact);
    r.gate("vqe_energy_tolerance", worst <= kEnergyTolerance,
           "worst best-energy error " + std::to_string(worst) + " Ha over " +
               std::to_string(st.best_energy.size()) +
               " episodes, tolerance " + std::to_string(kEnergyTolerance));
    r.context("vqe_worst_energy_error", worst);
  }

  if (!opt.trace) {
    r.metric("setup_s", setup_s.median(), "s", setup_s.size());
    r.metric("runs_per_s", runs_per_s, "1/s", st.rate.samples());
    r.metric("step_ms_p50", st.step_ms.chunk_quantile(0.5), "ms",
             st.step_ms.size());
    r.metric("step_ms_p90", st.step_ms.chunk_quantile(0.9), "ms",
             st.step_ms.size());
    r.metric("val_pass_ms_p50", st.energy_ms.chunk_quantile(0.5), "ms",
             st.energy_ms.size());
    r.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    return;
  }

  VqeStats ts;
  const auto before = ObsSnapshot::take();
  start_tracing(std::size_t{1} << 21);
  run_window(*h, *ansatz, mix_seed(opt.seed, 9), opt.smoke ? 0.0 : window_s,
             episode_steps, min_steps, ts);
  finish_tracing(opt, r);
  const auto d = ObsSnapshot::take() - before;
  const std::size_t steps = ts.step_ms.size();
  r.gate("vqe_traced_execution_counts_analytic", ts.count_mismatches == 0,
         std::to_string(ts.count_mismatches) + " mismatches");
  r.metric("vqe.energies_ms", ts.energies_ms.mean(), "ms", steps);
  r.metric("vqe.energy_ms", ts.energy_ms.mean(), "ms", steps);
  r.metric("vqe.self_ms_per_step",
           (ts.step_ms.sum() - ts.energies_ms.sum()) / steps, "ms", steps);
  r.metric("vqe.executions_per_step",
           static_cast<double>(ts.executions) / steps, "count", steps);
  // The estimator bypasses Backend: these read zero, as predicted.
  report_backend_layers(r, d, 0);
  r.metric("trace.overhead_frac",
           runs_per_s / ts.rate.rate() - 1.0, "ratio", steps);
}

}  // namespace perfbench
