#include "harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace presto::harness {
namespace {

unsigned resolve_threads(unsigned requested, int n) {
  unsigned t = requested;
  if (t == 0) {
    t = std::thread::hardware_concurrency();
    if (t == 0) t = 1;
  }
  return std::min<unsigned>(t, static_cast<unsigned>(std::max(1, n)));
}

}  // namespace

void for_each_index(int n, unsigned threads,
                    const std::function<void(int)>& body) {
  if (n <= 0) return;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::atomic<int> next{0};
  auto work = [&] {
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    }
  };

  const unsigned workers = resolve_threads(threads, n);
  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

SweepResult run_sweep(const ExperimentConfig& base, const SweepRunFn& run,
                      const SweepOptions& opt) {
  const int n = std::max(1, opt.seeds);
  std::vector<RunResult> runs =
      run_indexed(n, opt.threads, [&](int s) {
        ExperimentConfig cfg = base;
        cfg.seed =
            opt.base_seed + opt.seed_stride * static_cast<std::uint64_t>(s);
        return run(cfg);
      });

  // Merge strictly in seed order so the accumulation matches a serial loop.
  SweepResult agg;
  for (const RunResult& r : runs) {
    agg.avg_tput_gbps += r.avg_tput_gbps / n;
    agg.fairness += r.fairness / n;
    agg.loss_pct += r.loss_pct / n;
    agg.rtt_ms.merge(r.rtt_ms);
    agg.fct_ms.merge(r.fct_ms);
    agg.mice_timeouts += r.mice_timeouts;
    agg.telemetry.merge(r.telemetry);
    if (agg.fabric_health_json.empty() && !r.fabric_health_json.empty()) {
      agg.fabric_health_json = r.fabric_health_json;
    }
  }
  agg.runs = std::move(runs);
  return agg;
}

}  // namespace presto::harness
