// Shared plumbing for the experiment harnesses.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation (section 5): it builds the simulated BionicDB engine (and,
// where the figure calls for it, the native Silo baseline), runs the
// workload, and prints the same rows/series the paper reports.
//
// All binaries accept:
//   --quick     smaller populations/transaction counts (CI-friendly)
//   --smoke     minimal single-config run (implies --quick; used by the
//               bench_smoke ctest target to exercise the JSON report path)
//   --seed=N    workload RNG seed (default 42)
//   --mode=M    simulator mode: event (default) or serial (per-cycle)
//   --help      print the accepted flags and exit
//
// Unknown flags are an error (exit 2): a typo like --qiuck silently
// running the full-size sweep wastes a CI hour before anyone notices.
#ifndef BIONICDB_BENCH_BENCH_UTIL_H_
#define BIONICDB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/random.h"
#include "common/table_printer.h"
#include "core/engine.h"
#include "host/driver.h"

namespace bionicdb::bench {

struct BenchArgs {
  /// Simulator execution mode for engine-backed runs (results are
  /// bit-identical across both; the flag exists so determinism can be
  /// demonstrated — and CI can exercise every mode — from one binary).
  /// kEventDriven is the engine default; kSerial is the per-cycle oracle.
  enum class SimMode { kSerial, kEventDriven };

  bool quick = false;
  /// Minimal run: one small configuration, no native baselines. Exercises
  /// the full measurement + JSON-report path in seconds for CI smoke.
  bool smoke = false;
  uint64_t seed = 42;
  SimMode mode = SimMode::kEventDriven;
  /// CC scheme filter for the CC-diversity benches: "to", "sgt", "mvcc"
  /// or "all" (other benches ignore it).
  std::string cc = "all";
  /// Index batch size override for the batched-traversal benches (0 =
  /// keep each leg's default; other benches ignore it).
  uint32_t batch = 0;
  /// Scan length override for the range-scan legs (0 = leg default).
  uint32_t scan_len = 0;

  void ApplyMode(core::EngineOptions* opts) const {
    opts->timing.event_driven = mode == SimMode::kEventDriven;
  }

  const char* ModeName() const {
    return mode == SimMode::kEventDriven ? "event" : "serial";
  }

  static void PrintUsage(const char* prog, std::FILE* out) {
    std::fprintf(out,
                 "usage: %s [--quick] [--smoke] [--seed=N] [--mode=M] "
                 "[--cc=S] [--batch=N] [--scan-len=N]\n"
                 "  --quick      smaller populations/transaction counts\n"
                 "  --smoke      minimal single-config run (implies "
                 "--quick)\n"
                 "  --seed=N     workload RNG seed (default 42)\n"
                 "  --mode=M     simulator mode: event (default), serial "
                 "(per-cycle)\n"
                 "  --cc=S       CC scheme filter: to, sgt, mvcc, all "
                 "(default)\n"
                 "  --batch=N    index batch-size override for the "
                 "batched-traversal benches (0 = leg default)\n"
                 "  --scan-len=N scan-length override for the range-scan "
                 "legs (0 = leg default)\n"
                 "  --help       show this message\n",
                 prog);
  }

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    // Valued flags may be repeated only with the same value: --mode=event
    // --mode=serial is a conflict (which one did the caller mean?), not a
    // silent last-one-wins.
    const char* seen_mode = nullptr;
    const char* seen_seed = nullptr;
    const char* seen_cc = nullptr;
    const char* seen_batch = nullptr;
    const char* seen_scan_len = nullptr;
    auto conflict = [&](const char* prev, const char* cur) {
      if (prev != nullptr && std::strcmp(prev, cur) != 0) {
        std::fprintf(stderr,
                     "%s: conflicting flags '%s' and '%s' (pass each "
                     "valued flag at most once)\n",
                     argv[0], prev, cur);
        PrintUsage(argv[0], stderr);
        std::exit(2);
      }
    };
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) {
        args.quick = true;
      } else if (std::strcmp(argv[i], "--smoke") == 0) {
        args.smoke = true;
        args.quick = true;
      } else if (std::strncmp(argv[i], "--mode=", 7) == 0) {
        conflict(seen_mode, argv[i]);
        seen_mode = argv[i];
        const char* m = argv[i] + 7;
        if (std::strcmp(m, "serial") == 0) {
          args.mode = SimMode::kSerial;
        } else if (std::strcmp(m, "event") == 0) {
          args.mode = SimMode::kEventDriven;
        } else {
          std::fprintf(stderr, "%s: bad value in '%s'\n", argv[0], argv[i]);
          PrintUsage(argv[0], stderr);
          std::exit(2);
        }
      } else if (std::strncmp(argv[i], "--cc=", 5) == 0) {
        conflict(seen_cc, argv[i]);
        seen_cc = argv[i];
        const char* s = argv[i] + 5;
        if (std::strcmp(s, "to") != 0 && std::strcmp(s, "sgt") != 0 &&
            std::strcmp(s, "mvcc") != 0 && std::strcmp(s, "all") != 0) {
          std::fprintf(stderr, "%s: bad value in '%s'\n", argv[0], argv[i]);
          PrintUsage(argv[0], stderr);
          std::exit(2);
        }
        args.cc = s;
      } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
        conflict(seen_batch, argv[i]);
        seen_batch = argv[i];
        char* end = nullptr;
        unsigned long v = std::strtoul(argv[i] + 8, &end, 10);
        if (end == argv[i] + 8 || *end != '\0' || v > 1u << 20) {
          std::fprintf(stderr, "%s: bad value in '%s'\n", argv[0], argv[i]);
          PrintUsage(argv[0], stderr);
          std::exit(2);
        }
        args.batch = uint32_t(v);
      } else if (std::strncmp(argv[i], "--scan-len=", 11) == 0) {
        conflict(seen_scan_len, argv[i]);
        seen_scan_len = argv[i];
        char* end = nullptr;
        unsigned long v = std::strtoul(argv[i] + 11, &end, 10);
        if (end == argv[i] + 11 || *end != '\0' || v > 1u << 20) {
          std::fprintf(stderr, "%s: bad value in '%s'\n", argv[0], argv[i]);
          PrintUsage(argv[0], stderr);
          std::exit(2);
        }
        args.scan_len = uint32_t(v);
      } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
        conflict(seen_seed, argv[i]);
        seen_seed = argv[i];
        char* end = nullptr;
        args.seed = std::strtoull(argv[i] + 7, &end, 10);
        if (end == argv[i] + 7 || *end != '\0') {
          std::fprintf(stderr, "%s: bad value in '%s'\n", argv[0], argv[i]);
          PrintUsage(argv[0], stderr);
          std::exit(2);
        }
      } else if (std::strcmp(argv[i], "--help") == 0) {
        PrintUsage(argv[0], stdout);
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], argv[i]);
        PrintUsage(argv[0], stderr);
        std::exit(2);
      }
    }
    return args;
  }

  /// True when `name` ("to"/"sgt"/"mvcc") passes the --cc filter.
  bool CcEnabled(const char* name) const {
    return cc == "all" || cc == name;
  }
};

inline void PrintHeader(const char* id, const char* what) {
  std::printf("\n==============================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("==============================================================\n");
}

/// Threads to sweep for the Silo baseline (the paper used up to 24). On
/// hosts with few cores the sweep still runs up to 4 oversubscribed
/// threads so the comparison table has shape; the harness prints the
/// actual core count so readers can judge the scaling rows.
inline uint32_t MaxBaselineThreads() {
  uint32_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  uint32_t cap = hw < 4 ? 4 : hw;
  return cap < 24 ? cap : 24;
}

inline void PrintHostInfo() {
  std::printf("(Silo baseline host: %u hardware threads)\n",
              std::thread::hardware_concurrency());
}

/// Formats ops/s as the paper's units.
inline std::string Ktps(double tps) {
  return TablePrinter::Num(tps / 1e3, 1);
}
inline std::string Mops(double ops) {
  return TablePrinter::Num(ops / 1e6, 2);
}

}  // namespace bionicdb::bench

#endif  // BIONICDB_BENCH_BENCH_UTIL_H_
