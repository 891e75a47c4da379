// Tests for espresso-format PLA I/O.
#include <gtest/gtest.h>

#include "logic/pla.h"
#include "logic/urp.h"

namespace encodesat {
namespace {

TEST(Pla, ReadsTypeFd) {
  const Pla pla = read_pla_string(R"(
.i 3
.o 2
.ilb x y z
.ob f g
.type fd
.p 3
01- 10
1-1 01
110 --
.e
)");
  EXPECT_EQ(pla.domain.num_inputs(), 3);
  EXPECT_EQ(pla.domain.num_outputs(), 2);
  EXPECT_EQ(pla.on.size(), 2u);
  EXPECT_EQ(pla.dc.size(), 1u);
  EXPECT_EQ(pla.input_labels,
            (std::vector<std::string>{"x", "y", "z"}));
}

TEST(Pla, ReadsTypeFrOffset) {
  const Pla pla = read_pla_string(R"(
.i 2
.o 1
.type fr
11 1
00 0
)");
  EXPECT_EQ(pla.on.size(), 1u);
  EXPECT_EQ(pla.off.size(), 1u);
  EXPECT_TRUE(pla.dc.empty());
}

TEST(Pla, MixedOutputsSplitAcrossCovers) {
  const Pla pla = read_pla_string(R"(
.i 1
.o 3
.type fd
1 1-0
)");
  ASSERT_EQ(pla.on.size(), 1u);
  ASSERT_EQ(pla.dc.size(), 1u);
  EXPECT_TRUE(pla.on[0].bits.test(
      static_cast<std::size_t>(pla.domain.out_pos(0))));
  EXPECT_TRUE(pla.dc[0].bits.test(
      static_cast<std::size_t>(pla.domain.out_pos(1))));
}

TEST(Pla, RoundTripPreservesFunction) {
  const std::string text = R"(
.i 4
.o 2
.type fd
01-- 11
1--1 10
0011 --
)";
  const Pla pla = read_pla_string(text);
  const Pla again = read_pla_string(write_pla_string(pla));
  EXPECT_TRUE(covers_equivalent(pla.on, again.on, Cover(pla.domain)));
  EXPECT_TRUE(covers_equivalent(pla.dc, again.dc, Cover(pla.domain)));
}

TEST(Pla, Errors) {
  EXPECT_THROW(read_pla_string("01 1\n"), std::runtime_error);  // no header
  EXPECT_THROW(read_pla_string(".i 2\n.o 1\n011 1\n"), std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 2\n.o 1\n.magic\n01 1\n"),
               std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 2\n.o 1\n01 x\n"), std::runtime_error);
  // Header counts are whole integer tokens in int range.
  EXPECT_THROW(read_pla_string(".i abc\n.o 1\n01 1\n"), std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 99999999999\n.o 1\n01 1\n"),
               std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 2\n.o 1x\n01 1\n"), std::runtime_error);
}

TEST(Pla, WhitespaceTolerant) {
  const Pla pla = read_pla_string(".i 2\n.o 1\n0 1   1\n");
  EXPECT_EQ(pla.on.size(), 1u);
}

}  // namespace
}  // namespace encodesat
