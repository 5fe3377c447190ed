// kf_perfbench — end-to-end benchmark of the kernel-fusion library.
//
//   kf_perfbench --workload cold-fuse|warm-hits|serve-mixed --seed N
//                --seconds S --trace 0|1 [--out DIR]
//   kf_perfbench --self-test [--out DIR]
//
// Run outputs go to DIR, by default .bench_out/<workload>-<pid>. The
// store directories a run makes there are removed when it ends; traces of
// a --trace 1 run stay.
//
// Prints a human summary on stderr and, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Every run also shows that each output check rejects a broken input.
#include <omp.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "checks.hpp"

namespace kf::perfbench {
namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "kf_perfbench: " << why
            << "\nusage: kf_perfbench --workload cold-fuse|warm-hits|serve-mixed "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n"
               "       kf_perfbench --self-test [--out DIR]\n";
  std::exit(2);
}

int run(int argc, char** argv) {
  Options options;
  bool self_test_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") options.workload = value();
    else if (arg == "--seed") options.seed = std::stoull(value());
    else if (arg == "--seconds") options.seconds = std::stod(value());
    else if (arg == "--trace") options.trace = value() != "0";
    else if (arg == "--out") options.out_dir = value();
    else if (arg == "--self-test") self_test_only = true;
    else usage("unknown argument '" + arg + "'");
  }
  // One OpenMP thread: the HGGA's parallel population loop under libgomp's
  // active wait made identical searches vary several-fold on a shared
  // 4-vCPU machine, and was no faster on the larger programs.
  omp_set_num_threads(1);
  if (options.out_dir.empty()) {
    const std::string name = self_test_only ? std::string("self-test") : options.workload;
    options.out_dir = ".bench_out/" + name + "-" + std::to_string(getpid());
  }
  std::filesystem::create_directories(options.out_dir);

  Result result;
  if (!self_test_only) {
    if (options.workload == "cold-fuse") run_cold_fuse(options, result);
    else if (options.workload == "warm-hits") run_warm_hits(options, result);
    else if (options.workload == "serve-mixed") run_serve_mixed(options, result);
    else usage("unknown workload '" + options.workload + "'");
    if (options.trace) complete_per_layer(result);
  }
  // After the workload, so its set-up time holds no benchmark overhead.
  for (const std::string& missed : self_test(fresh_dir(options, "self-test")))
    result.fail("self-test: check accepted a broken input: " + missed);
  remove_fresh_dirs();
  std::error_code ec;
  std::filesystem::remove(options.out_dir, ec);  // only when nothing is left in it
  if (self_test_only) {
    std::cerr << (result.correct ? "self-test: every check rejects its broken input\n"
                                 : "self-test FAILED\n");
    for (const std::string& e : result.errors) std::cerr << "  " << e << "\n";
    return result.correct ? 0 : 1;
  }

  std::cerr << options.workload << " seed " << options.seed << (options.trace ? " traced" : "")
            << ": " << result.attempted << " operations, " << result.failed << " failed, "
            << (result.correct ? "outputs correct" : "OUTPUT CHECKS FAILED") << "\n";
  for (std::size_t i = 0; i < result.errors.size() && i < 20; ++i)
    std::cerr << "  " << result.errors[i] << "\n";
  for (const Result::Metric& m : result.metrics)
    std::cerr << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  std::cout << result.to_json() << std::endl;
  return 0;
}

}  // namespace
}  // namespace kf::perfbench

int main(int argc, char** argv) {
  try {
    return kf::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "kf_perfbench: " << e.what() << "\n";
    return 1;
  }
}
