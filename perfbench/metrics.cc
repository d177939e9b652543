#include "metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  double cut[3];
  const auto m = static_cast<std::int64_t>(n) + 1;
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j =
        std::clamp<std::int64_t>(i * m / 4, 1, static_cast<std::int64_t>(n) - 1);
    const std::int64_t delta = i * m - j * 4;
    const auto at = static_cast<std::size_t>(j);
    cut[i - 1] = (values[at - 1] * static_cast<double>(4 - delta) +
                  values[at] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double rep_cost_estimate(const std::vector<std::vector<double>>& laps) {
  if (laps.empty()) return 0;
  const std::size_t slices = laps.front().size();
  const bool aligned =
      std::all_of(laps.begin(), laps.end(),
                  [slices](const std::vector<double>& l) {
                    return l.size() == slices;
                  });
  if (!aligned) {
    std::vector<double> totals;
    for (const std::vector<double>& l : laps) {
      totals.push_back(std::accumulate(l.begin(), l.end(), 0.0));
    }
    return quartiles(totals).q1;
  }
  double sum = 0;
  for (std::size_t k = 0; k < slices; ++k) {
    double best = laps.front()[k];
    for (const std::vector<double>& l : laps) best = std::min(best, l[k]);
    sum += best;
  }
  return sum;
}

double build_cost_estimate(const std::vector<std::vector<double>>& rounds) {
  if (rounds.empty()) return 0;
  std::vector<double> fastest = rounds.front();
  for (const std::vector<double>& round : rounds) {
    for (std::size_t j = 0; j < std::min(fastest.size(), round.size()); ++j) {
      fastest[j] = std::min(fastest[j], round[j]);
    }
  }
  return quartiles(std::move(fastest)).median;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
  std::string out = buf;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN/Inf; a metric that cannot be computed reads 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
