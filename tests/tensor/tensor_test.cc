// Tests for the Tensor type: factories, element access, views, bulk ops,
// reductions across all dtypes, and phantom-tensor semantics.
#include "src/tensor/tensor.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace mcrdl {
namespace {

TEST(Tensor, ZerosFactory) {
  Tensor t = Tensor::zeros({2, 3}, DType::F32, nullptr);
  EXPECT_TRUE(t.defined());
  EXPECT_TRUE(t.materialized());
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.bytes(), 24u);
  for (int i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(t.get(i), 0.0);
}

TEST(Tensor, UndefinedTensor) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_EQ(t.numel(), 0);
  EXPECT_THROW(t.get(0), Error);
}

TEST(Tensor, FullAndFill) {
  Tensor t = Tensor::full({4}, DType::F64, 3.25, nullptr);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(t.get(i), 3.25);
  t.fill(-1.0);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(t.get(i), -1.0);
}

TEST(Tensor, Arange) {
  Tensor t = Tensor::arange(5, DType::I64, nullptr);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(t.get(i), i);
}

TEST(Tensor, RandomUniformBoundsAndDeterminism) {
  Rng r1(99), r2(99);
  Tensor a = Tensor::random_uniform({100}, DType::F32, nullptr, r1, -2.0, 2.0);
  Tensor b = Tensor::random_uniform({100}, DType::F32, nullptr, r2, -2.0, 2.0);
  EXPECT_TRUE(a.allclose(b));
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(a.get(i), -2.0);
    EXPECT_LT(a.get(i), 2.0);
  }
}

TEST(Tensor, SetGetRoundTripPerDtype) {
  for (DType dt : {DType::F16, DType::BF16, DType::F32, DType::F64, DType::I32, DType::I64,
                   DType::U8}) {
    Tensor t = Tensor::zeros({3}, dt, nullptr);
    t.set(1, 2.0);
    EXPECT_DOUBLE_EQ(t.get(1), 2.0) << dtype_name(dt);
    EXPECT_DOUBLE_EQ(t.get(0), 0.0) << dtype_name(dt);
  }
}

TEST(Tensor, IndexOutOfRange) {
  Tensor t = Tensor::zeros({2}, DType::F32, nullptr);
  EXPECT_THROW(t.get(2), InvalidArgument);
  EXPECT_THROW(t.get(-1), InvalidArgument);
  EXPECT_THROW(t.set(5, 0.0), InvalidArgument);
}

TEST(Tensor, ViewSharesStorage) {
  Tensor t = Tensor::arange(10, DType::F32, nullptr);
  Tensor v = t.view(3, 4);
  EXPECT_EQ(v.numel(), 4);
  EXPECT_DOUBLE_EQ(v.get(0), 3.0);
  EXPECT_DOUBLE_EQ(v.get(3), 6.0);
  v.set(0, 100.0);
  EXPECT_DOUBLE_EQ(t.get(3), 100.0);  // writes through to the base tensor
}

TEST(Tensor, ViewOfViewComposesOffsets) {
  Tensor t = Tensor::arange(10, DType::F32, nullptr);
  Tensor v = t.view(2, 6).view(1, 3);
  EXPECT_DOUBLE_EQ(v.get(0), 3.0);
  EXPECT_DOUBLE_EQ(v.get(2), 5.0);
}

TEST(Tensor, ViewBoundsChecked) {
  Tensor t = Tensor::zeros({4}, DType::F32, nullptr);
  EXPECT_THROW(t.view(2, 3), InvalidArgument);
  EXPECT_THROW(t.view(-1, 2), InvalidArgument);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t = Tensor::arange(4, DType::F32, nullptr);
  Tensor c = t.clone();
  c.set(0, 42.0);
  EXPECT_DOUBLE_EQ(t.get(0), 0.0);
  EXPECT_DOUBLE_EQ(c.get(0), 42.0);
}

TEST(Tensor, CopyFromChecksShapeAndDtype) {
  Tensor a = Tensor::zeros({4}, DType::F32, nullptr);
  Tensor b = Tensor::arange(4, DType::F32, nullptr);
  a.copy_from(b);
  EXPECT_TRUE(a.allclose(b));
  Tensor wrong_size = Tensor::zeros({5}, DType::F32, nullptr);
  EXPECT_THROW(a.copy_from(wrong_size), InvalidArgument);
  Tensor wrong_type = Tensor::zeros({4}, DType::F64, nullptr);
  EXPECT_THROW(a.copy_from(wrong_type), InvalidArgument);
}

TEST(Tensor, CopyFromOverlappingViewsIsSafe) {
  Tensor t = Tensor::arange(6, DType::F32, nullptr);
  Tensor dst = t.view(0, 4);
  Tensor src = t.view(2, 4);
  dst.copy_from(src);  // memmove semantics
  EXPECT_DOUBLE_EQ(t.get(0), 2.0);
  EXPECT_DOUBLE_EQ(t.get(3), 5.0);
}

TEST(Tensor, ReduceInplaceAllOps) {
  auto make = [](std::initializer_list<double> vals) {
    Tensor t = Tensor::zeros({static_cast<std::int64_t>(vals.size())}, DType::F64, nullptr);
    std::int64_t i = 0;
    for (double v : vals) t.set(i++, v);
    return t;
  };
  {
    Tensor a = make({1, 2, 3});
    a.reduce_inplace(make({10, 20, 30}), ReduceOp::Sum);
    EXPECT_EQ(a.to_vector(), (std::vector<double>{11, 22, 33}));
  }
  {
    Tensor a = make({2, 3, 4});
    a.reduce_inplace(make({5, 6, 7}), ReduceOp::Prod);
    EXPECT_EQ(a.to_vector(), (std::vector<double>{10, 18, 28}));
  }
  {
    Tensor a = make({1, 9, 5});
    a.reduce_inplace(make({3, 2, 5}), ReduceOp::Min);
    EXPECT_EQ(a.to_vector(), (std::vector<double>{1, 2, 5}));
  }
  {
    Tensor a = make({1, 9, 5});
    a.reduce_inplace(make({3, 2, 5}), ReduceOp::Max);
    EXPECT_EQ(a.to_vector(), (std::vector<double>{3, 9, 5}));
  }
}

TEST(Tensor, ScaleForAverage) {
  Tensor a = Tensor::full({3}, DType::F32, 8.0, nullptr);
  a.scale(0.25);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(a.get(i), 2.0);
}

TEST(Tensor, AllcloseTolerances) {
  Tensor a = Tensor::full({2}, DType::F64, 1.0, nullptr);
  Tensor b = Tensor::full({2}, DType::F64, 1.0 + 1e-9, nullptr);
  EXPECT_TRUE(a.allclose(b));
  Tensor c = Tensor::full({2}, DType::F64, 1.1, nullptr);
  EXPECT_FALSE(a.allclose(c));
  Tensor different_size = Tensor::zeros({3}, DType::F64, nullptr);
  EXPECT_FALSE(a.allclose(different_size));
}

// --- phantom semantics -------------------------------------------------------

TEST(Tensor, PhantomMetadata) {
  Tensor p = Tensor::phantom({1024, 1024}, DType::F16, nullptr);
  EXPECT_TRUE(p.defined());
  EXPECT_FALSE(p.materialized());
  EXPECT_EQ(p.numel(), 1024 * 1024);
  EXPECT_EQ(p.bytes(), 2u * 1024 * 1024);
}

TEST(Tensor, PhantomElementAccessRejected) {
  Tensor p = Tensor::phantom({4}, DType::F32, nullptr);
  EXPECT_THROW(p.get(0), InvalidArgument);
  EXPECT_THROW(p.set(0, 1.0), InvalidArgument);
  EXPECT_THROW(p.to_vector(), InvalidArgument);
  EXPECT_THROW(p.raw_data(), InvalidArgument);
}

TEST(Tensor, PhantomBulkOpsAreNoOps) {
  Tensor p = Tensor::phantom({4}, DType::F32, nullptr);
  Tensor real = Tensor::arange(4, DType::F32, nullptr);
  p.fill(1.0);
  p.copy_from(real);
  p.reduce_inplace(real, ReduceOp::Sum);
  p.scale(2.0);
  real.copy_from(p);  // phantom source: destination unchanged
  EXPECT_DOUBLE_EQ(real.get(3), 3.0);
}

TEST(Tensor, PhantomViewAndCloneStayPhantom) {
  Tensor p = Tensor::phantom({8}, DType::F32, nullptr);
  EXPECT_FALSE(p.view(2, 4).materialized());
  EXPECT_EQ(p.view(2, 4).numel(), 4);
  EXPECT_FALSE(p.clone().materialized());
}

TEST(Tensor, PhantomHugeAllocationIsCheap) {
  // 4B parameters in f16 — the paper's DS-MoE model size; must not allocate.
  Tensor p = Tensor::phantom({4LL * 1000 * 1000 * 1000}, DType::F16, nullptr);
  EXPECT_EQ(p.bytes(), 8'000'000'000ull);
}

TEST(Tensor, Describe) {
  EXPECT_EQ(Tensor::zeros({2, 3}, DType::F32, nullptr).describe(), "Tensor(f32, [2,3])");
  EXPECT_EQ(Tensor::phantom({4}, DType::I32, nullptr).describe(), "Tensor(i32, [4], phantom)");
  EXPECT_EQ(Tensor().describe(), "Tensor(undefined)");
}

TEST(Tensor, TotalBytesOfList) {
  TensorList list;
  list.push_back(Tensor::zeros({4}, DType::F32, nullptr));
  list.push_back(Tensor::phantom({8}, DType::F64, nullptr));
  EXPECT_EQ(total_bytes(list), 16u + 64u);
}

TEST(Tensor, NegativeShapeRejected) {
  EXPECT_THROW(Tensor::zeros({-1}, DType::F32, nullptr), InvalidArgument);
}

// The shape is stored inline (at most Tensor::kMaxRank dimensions); it must
// survive copies, clones and views unchanged.
TEST(Tensor, ShapesRoundTripThroughDescribeCloneAndView) {
  struct Case {
    Tensor t;
    const char* text;
  };
  const Case cases[] = {
      {Tensor::zeros({6}, DType::F32, nullptr), "Tensor(f32, [6])"},
      {Tensor::zeros({2, 3}, DType::F64, nullptr), "Tensor(f64, [2,3])"},
      {Tensor::zeros({1, 2, 3, 1}, DType::I32, nullptr), "Tensor(i32, [1,2,3,1])"},
      {Tensor::phantom({6}, DType::F16, nullptr), "Tensor(f16, [6], phantom)"},
      {Tensor::phantom({3, 2}, DType::BF16, nullptr), "Tensor(bf16, [3,2], phantom)"},
      {Tensor::phantom({1, 1, 2, 3}, DType::U8, nullptr), "Tensor(u8, [1,1,2,3], phantom)"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    EXPECT_EQ(c.t.describe(), c.text);
    EXPECT_EQ(c.t.clone().describe(), c.text);
    EXPECT_EQ(c.t.numel(), 6);
    // A view is 1-D over the requested range, whatever the source rank.
    const Tensor v = c.t.view(1, 4);
    ASSERT_EQ(v.shape().size(), 1u);
    EXPECT_EQ(v.shape()[0], 4);
    EXPECT_EQ(v.materialized(), c.t.materialized());
    EXPECT_EQ(c.t.view(0, 6).numel(), 6);
  }
  const Tensor t = Tensor::zeros({1, 2, 3, 1}, DType::F32, nullptr);
  ASSERT_EQ(t.shape().size(), 4u);
  EXPECT_EQ(t.shape()[1], 2);
  EXPECT_EQ(t.shape()[2], 3);
}

TEST(Tensor, RankAboveTheInlineLimitIsRejected) {
  static_assert(Tensor::kMaxRank == 4);
  EXPECT_THROW(Tensor::zeros({1, 1, 1, 1, 2}, DType::F32, nullptr), InvalidArgument);
  EXPECT_THROW(Tensor::phantom({1, 1, 1, 1, 2}, DType::F32, nullptr), InvalidArgument);
  EXPECT_THROW(Tensor::full({1, 1, 1, 1, 2}, DType::F32, 1.0, nullptr), InvalidArgument);
  Rng rng(3);
  EXPECT_THROW(Tensor::random_uniform({1, 1, 1, 1, 2}, DType::F32, nullptr, rng),
               InvalidArgument);
}

TEST(Tensor, CopiesDescribeLikeTheirSource) {
  const Tensor dense = Tensor::full({2, 3}, DType::F32, 1.5, nullptr);
  const Tensor phantom = Tensor::phantom({4, 1, 2}, DType::I64, nullptr);
  Tensor a = dense;
  Tensor b = phantom;
  EXPECT_EQ(a.describe(), dense.describe());
  EXPECT_EQ(b.describe(), phantom.describe());
  b = a;
  EXPECT_EQ(b.describe(), dense.describe());
  EXPECT_EQ(b.raw_data(), dense.raw_data());  // a copy shares storage
}

}  // namespace
}  // namespace mcrdl
