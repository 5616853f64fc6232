#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace sss::stats {

LogHistogram::LogHistogram(double lo, double hi, std::size_t bins_per_decade)
    : log_lo_(std::log10(lo)),
      log_width_(1.0 / static_cast<double>(bins_per_decade)),
      lo_(lo) {
  if (!(lo > 0.0)) throw std::invalid_argument("LogHistogram requires lo > 0");
  if (!(hi > lo)) throw std::invalid_argument("LogHistogram requires hi > lo");
  if (bins_per_decade == 0) {
    throw std::invalid_argument("LogHistogram requires bins_per_decade > 0");
  }
  const double decades = std::log10(hi) - log_lo_;
  const auto bins = static_cast<std::size_t>(
      std::ceil(decades * static_cast<double>(bins_per_decade)));
  counts_.assign(std::max<std::size_t>(bins, 1), 0);
}

void LogHistogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  const auto idx = static_cast<std::size_t>((std::log10(x) - log_lo_) / log_width_);
  if (idx >= counts_.size()) {
    ++overflow_;
    return;
  }
  ++counts_[idx];
}

double LogHistogram::bin_lo(std::size_t bin) const {
  return std::pow(10.0, log_lo_ + static_cast<double>(bin) * log_width_);
}

double LogHistogram::bin_hi(std::size_t bin) const {
  return std::pow(10.0, log_lo_ + static_cast<double>(bin + 1) * log_width_);
}

std::string LogHistogram::render(std::size_t width) const {
  std::size_t peak = 1;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::string out;
  char label[64];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) * static_cast<double>(width) /
        static_cast<double>(peak));
    std::snprintf(label, sizeof(label), "[%9.3g, %9.3g) %8zu |", bin_lo(i), bin_hi(i),
                  counts_[i]);
    out += label;
    out.append(std::max<std::size_t>(bar, 1), '#');
    out += '\n';
  }
  return out;
}

}  // namespace sss::stats
