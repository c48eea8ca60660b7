// qoc_perfbench: one workload of the end-to-end benchmark per process.
//
//   qoc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out <dir>] [--smoke]
//
// Prints a human-readable table, then one JSON line (the last line of
// stdout) with every metric, its unit and sample count, the correctness
// gates and the run context. --trace 0 reports the end-to-end metrics
// from an untraced window; --trace 1 splits the time between an
// untraced and a traced window and reports the per-layer metrics, with
// the Chrome trace written under --out. perfbench/run.py drives this.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: qoc_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0.0) return usage();

  perfbench::Report report;
  perfbench::record_context(report, "start");
  report.context("workload", opt.workload);
  report.context("seed", static_cast<double>(opt.seed));
  try {
    if (opt.workload == "qc-train-pgp-mnist4-jakarta")
      perfbench::run_train(opt, report);
    else if (opt.workload == "vqe-h2-pgp")
      perfbench::run_vqe(opt, report);
    else if (opt.workload == "serve-qnn-exact")
      perfbench::run_serve(opt, report);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qoc_perfbench: %s\n", e.what());
    return 1;
  }
  perfbench::record_context(report, "end");
  report.print_table();
  std::printf("%s\n", report.to_json().c_str());
  return report.correct() ? 0 : 1;
}
