// Tests for the completion-time equations against hand-computed values and
// the paper's own numbers.
#include "core/completion.hpp"

#include <gtest/gtest.h>

namespace sss::core {
namespace {

// Coherent Scattering-like setup: 2 GB unit, C such that work = 34 TF.
ModelParameters coherent_like() {
  ModelParameters p;
  p.s_unit = units::Bytes::gigabytes(2.0);
  p.complexity = units::Complexity::flop_per_byte(17000.0);
  p.r_local = units::FlopsRate::teraflops(5.0);
  p.r_remote = units::FlopsRate::teraflops(50.0);
  p.bandwidth = units::DataRate::gigabits_per_second(25.0);
  p.alpha = 0.8;
  p.theta = 1.0;
  return p;
}

TEST(Completion, Eq3LocalTime) {
  // T_local = C*S/R_local = 34 TF / 5 TFLOPS = 6.8 s.
  EXPECT_DOUBLE_EQ(t_local(coherent_like()).seconds(), 6.8);
}

TEST(Completion, Eq5TransferTime) {
  // T_transfer = S/(alpha*Bw) = 2 GB / (0.8 * 3.125 GB/s) = 0.8 s.
  EXPECT_DOUBLE_EQ(t_transfer(coherent_like()).seconds(), 0.8);
}

TEST(Completion, Eq6RemoteTime) {
  // T_remote = C*S/R_remote = 34 TF / 50 TFLOPS = 0.68 s.
  EXPECT_DOUBLE_EQ(t_remote(coherent_like()).seconds(), 0.68);
}

TEST(Completion, Eq10TotalPct) {
  // theta=1: T_pct = 0.8 + 0.68 = 1.48 s.
  EXPECT_NEAR(t_pct(coherent_like()).seconds(), 1.48, 1e-12);
  // theta=2 doubles the transfer component: 1.6 + 0.68.
  ModelParameters p = coherent_like();
  p.theta = 2.0;
  EXPECT_NEAR(t_pct(p).seconds(), 2.28, 1e-12);
}

TEST(Completion, IoOverheadFromTheta) {
  ModelParameters p = coherent_like();
  p.theta = 1.0;
  EXPECT_DOUBLE_EQ(t_io(p).seconds(), 0.0);  // pure streaming
  p.theta = 3.0;
  EXPECT_NEAR(t_io(p).seconds(), 2.0 * 0.8, 1e-12);
}

TEST(Completion, Eq7ConsistencyThetaDefinition) {
  // Eq. 7: theta = (T_IO + T_transfer) / T_transfer must hold for any theta.
  for (double theta : {1.0, 1.3, 2.0, 5.0}) {
    ModelParameters p = coherent_like();
    p.theta = theta;
    const double reconstructed =
        (t_io(p).seconds() + t_transfer(p).seconds()) / t_transfer(p).seconds();
    EXPECT_NEAR(reconstructed, theta, 1e-12);
  }
}

TEST(Completion, BreakdownSumsToTotal) {
  ModelParameters p = coherent_like();
  p.theta = 2.5;
  const RemoteBreakdown br = remote_breakdown(p);
  EXPECT_NEAR(br.total().seconds(), t_pct(p).seconds(), 1e-12);
  EXPECT_DOUBLE_EQ(br.transfer.seconds(), t_transfer(p).seconds());
  EXPECT_DOUBLE_EQ(br.io.seconds(), t_io(p).seconds());
  EXPECT_DOUBLE_EQ(br.remote.seconds(), t_remote(p).seconds());
}

TEST(Completion, PaperTheoreticalTransferExample) {
  // 0.5 GB at 25 Gbps with alpha=1: the paper's 0.16 s T_theoretical.
  ModelParameters p;
  p.s_unit = units::Bytes::gigabytes(0.5);
  p.bandwidth = units::DataRate::gigabits_per_second(25.0);
  p.alpha = 1.0;
  EXPECT_NEAR(t_transfer(p).seconds(), 0.16, 1e-12);
}

}  // namespace
}  // namespace sss::core
