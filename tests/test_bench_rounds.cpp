// The micro benches' rounds runner (bench/rounds.h): which cell starts
// each round, and that quartiles and ratios are taken over the right
// samples.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rounds.h"

namespace bluedove::benchutil {
namespace {

TEST(BenchRounds, RotatesStartAndPairsByRound) {
  constexpr int kCells = 3;
  std::vector<int> calls;            // cell index of every call, in order
  std::vector<double> returned[kCells];
  // Cell c's k-th call is its sample of round k. The base scales with the
  // round, so a ratio taken across rounds would not come out constant.
  auto sample = [](int c, int k) {
    const double base = 1.0 + k;
    if (c == 0) return base;
    if (c == 1) return k % 2 == 0 ? 2.0 * base : 0.5 * base;
    return 3.0 * base;
  };
  std::vector<Cell> cells;
  for (int c = 0; c < kCells; ++c) {
    cells.push_back({"cell" + std::to_string(c), [&, c] {
      calls.push_back(c);
      const double v = sample(c, static_cast<int>(returned[c].size()));
      returned[c].push_back(v);
      return v;
    }});
  }
  const Rounds rounds(std::move(cells), "cell0");

  // Round r runs every cell once, starting at cell r mod n.
  ASSERT_EQ(calls.size(), static_cast<std::size_t>(kCells * kRounds));
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kCells; ++i) {
      EXPECT_EQ(calls[r * kCells + i], (r + i) % kCells)
          << "round " << r << " position " << i;
    }
  }

  for (int c = 0; c < kCells; ++c) {
    const std::string name = "cell" + std::to_string(c);
    EXPECT_EQ(rounds.samples(name), returned[c]);
    const Quartiles q = rounds.cell(name);
    EXPECT_DOUBLE_EQ(q.median, quantile(returned[c], 0.5));
    EXPECT_DOUBLE_EQ(q.q1, quantile(returned[c], 0.25));
    EXPECT_DOUBLE_EQ(q.q3, quantile(returned[c], 0.75));
  }

  // Each ratio divides by the base's sample from the same round: cell2 is
  // exactly 3x its round's base, cell1 alternately 2x and 0.5x.
  const Quartiles r2 = rounds.ratio("cell2");
  EXPECT_DOUBLE_EQ(r2.median, 3.0);
  EXPECT_DOUBLE_EQ(r2.q1, 3.0);
  EXPECT_DOUBLE_EQ(r2.q3, 3.0);
  const Quartiles r1 = rounds.ratio("cell1");
  EXPECT_DOUBLE_EQ(r1.median, 1.25);  // five 0.5s and five 2s
  EXPECT_DOUBLE_EQ(r1.q1, 0.5);
  EXPECT_DOUBLE_EQ(r1.q3, 2.0);
  EXPECT_DOUBLE_EQ(rounds.ratio("cell0").median, 1.0);

  EXPECT_EQ(rounds.wins("cell2"), kRounds);
  EXPECT_EQ(rounds.wins("cell1"), kRounds / 2);  // the even rounds
  EXPECT_EQ(rounds.wins("cell0"), 0);
}

}  // namespace
}  // namespace bluedove::benchutil
