#include "sketch/hll.h"

#include <cmath>
#include <cstring>

#include "common/check.h"

namespace stardust {

namespace {

/// Bias-correction constant alpha_m of the raw HLL estimator.
double AlphaM(std::size_t m) {
  switch (m) {
    case 16: return 0.673;
    case 32: return 0.697;
    case 64: return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

/// 2^-r for every possible register value r.
constexpr std::array<double, HyperLogLog::kRankSlots> kInversePowers = [] {
  std::array<double, HyperLogLog::kRankSlots> powers{};
  double p = 1.0;
  for (double& x : powers) {
    x = p;
    p *= 0.5;
  }
  return powers;
}();

}  // namespace

HyperLogLog::HyperLogLog(std::size_t precision) : precision_(precision) {
  SD_CHECK(precision_ >= 4 && precision_ <= 18);
  registers_.assign(std::size_t{1} << precision_, 0);
}

double HyperLogLog::Estimate() const {
  RankHistogram hist;
  FillHistogram(registers_.data(), registers_.size(), &hist);
  return EstimateFromHistogram(hist, registers_.size());
}

void HyperLogLog::FillHistogram(const std::uint8_t* registers,
                                std::size_t m, RankHistogram* hist) {
  hist->fill(0);
  for (std::size_t i = 0; i < m; ++i) ++(*hist)[registers[i]];
}

double HyperLogLog::EstimateFromHistogram(const RankHistogram& hist,
                                          std::size_t m) {
  // Each term is a multiple of 2^-max_rank and the sum is at most m, so
  // the sum is exact, and equal to a per-register sum in any order, while
  // every register stays <= 53 - precision (a register reaches rank r
  // after about 2^r distinct values in its substream).
  double sum = 0.0;
  for (std::size_t r = kRankSlots; r-- > 0;) {
    sum += static_cast<double>(hist[r]) * kInversePowers[r];
  }
  const double md = static_cast<double>(m);
  const double raw = AlphaM(m) * md * md / sum;
  // Small-range correction: linear counting over the empty registers is
  // far more accurate than the raw estimator below ~2.5m.
  const std::uint32_t zeros = hist[0];
  if (raw <= 2.5 * md && zeros > 0) {
    return md * std::log(md / static_cast<double>(zeros));
  }
  return raw;
}

void HyperLogLog::Clear() {
  std::memset(registers_.data(), 0, registers_.size());
}

void HyperLogLog::SaveTo(Writer* writer) const {
  writer->U64(precision_);
  writer->Bytes(registers_.data(), registers_.size());
}

Status HyperLogLog::RestoreFrom(Reader* reader) {
  std::uint64_t precision = 0;
  SD_RETURN_NOT_OK(reader->U64(&precision));
  if (precision != precision_) {
    return Status::InvalidArgument("HLL snapshot precision mismatch");
  }
  for (std::uint8_t& r : registers_) {
    SD_RETURN_NOT_OK(reader->U8(&r));
  }
  return Status::OK();
}

}  // namespace stardust
