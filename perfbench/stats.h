// Order statistics shared by the benchmark's reports.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

inline std::vector<double> Finite(const std::vector<double>& values) {
  std::vector<double> out;
  for (double v : values) {
    if (std::isfinite(v)) out.push_back(v);
  }
  return out;
}

inline double Median(std::vector<double> values) {
  values = Finite(values);
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank percentile (p in (0, 1]): the smallest sample with at
/// least p of the samples at or below it.
inline double Percentile(std::vector<double> values, double p) {
  values = Finite(values);
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

/// First and third quartile, computed the way Python's
/// statistics.quantiles(values, n=4) does (the "exclusive" method), so the
/// in-run spread reads like the spread across runs.
inline std::pair<double, double> Quartiles(std::vector<double> values) {
  values = Finite(values);
  if (values.empty()) return {std::nan(""), std::nan("")};
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 1) return {values[0], values[0]};
  const auto cut = [&](long long i) {
    const auto m = static_cast<long long>(n) + 1;
    const long long j =
        std::clamp<long long>(i * m / 4, 1, static_cast<long long>(n) - 1);
    const long long delta = i * m - j * 4;
    return (values[static_cast<size_t>(j) - 1] * static_cast<double>(4 - delta) +
            values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
