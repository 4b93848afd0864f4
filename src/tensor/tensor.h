// MCR-DL's tensor type — the unit every communication operation moves.
//
// Tensors carry a dtype, a shape, and a device placement, and come in two
// storage modes:
//   * Materialised — a real host buffer stands in for device memory, and the
//     simulated collectives perform genuine data movement and reduction math
//     on it (this is what the correctness tests verify).
//   * Phantom — shape/dtype metadata only. Paper-scale workloads (a 4-billion
//     parameter MoE) are *timed* through the same code paths without
//     allocating paper-scale buffers; data-touching calls on a phantom
//     tensor are no-ops for bulk operations and errors for element access.
//
// Views (1-D slices sharing storage) support fusion slice-back and
// reduce-scatter outputs. Element accessors convert through double, which is
// exact for every supported dtype's value range used in tests.
//
// The shape lives inline (at most kMaxRank dimensions), so constructing a
// phantom tensor, taking a view or copying a Tensor never touches the heap;
// only a materialised tensor's storage does.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/net/comm_types.h"
#include "src/tensor/dtype.h"

namespace mcrdl::sim {
class Device;
}

namespace mcrdl {

class Tensor {
 public:
  // Highest supported rank; a factory given more dimensions throws
  // InvalidArgument.
  static constexpr std::size_t kMaxRank = 4;
  using Shape = std::initializer_list<std::int64_t>;

  // An empty (undefined) tensor; most APIs reject it.
  Tensor() = default;

  // --- factories -----------------------------------------------------------
  static Tensor zeros(Shape shape, DType dtype, sim::Device* device);
  static Tensor full(Shape shape, DType dtype, double value, sim::Device* device);
  // [0, 1, 2, ...); handy for alltoall/gather correctness checks.
  static Tensor arange(std::int64_t n, DType dtype, sim::Device* device);
  static Tensor random_uniform(Shape shape, DType dtype, sim::Device* device, Rng& rng,
                               double lo = 0.0, double hi = 1.0);
  // Metadata-only tensor for paper-scale timing runs.
  static Tensor phantom(Shape shape, DType dtype, sim::Device* device);

  // --- metadata -------------------------------------------------------------
  bool defined() const { return numel_ >= 0; }
  bool materialized() const { return storage_ != nullptr; }
  std::span<const std::int64_t> shape() const { return {dims_.data(), rank_}; }
  std::int64_t numel() const { return numel_ < 0 ? 0 : numel_; }
  std::size_t bytes() const { return static_cast<std::size_t>(numel()) * dtype_size(dtype_); }
  DType dtype() const { return dtype_; }
  sim::Device* device() const { return device_; }

  // --- element access (materialised tensors only) ---------------------------
  double get(std::int64_t i) const;
  void set(std::int64_t i, double v);
  std::vector<double> to_vector() const;

  // --- bulk operations -------------------------------------------------------
  // 1-D view over [offset, offset+count) elements, sharing storage.
  Tensor view(std::int64_t offset_elems, std::int64_t count) const;
  // Deep copy (phantom clones stay phantom).
  Tensor clone() const;
  // Elementwise copy; shapes may differ but numel and dtype must match.
  // No-op if either side is phantom.
  void copy_from(const Tensor& src);
  void fill(double v);
  // this[i] = this[i] OP other[i]; Avg accumulates as Sum (callers divide
  // with scale() at the end, as the backends do). No-op if either side is
  // phantom.
  void reduce_inplace(const Tensor& other, ReduceOp op);
  void scale(double factor);

  bool allclose(const Tensor& other, double atol = 1e-6, double rtol = 1e-5) const;

  // Raw byte access for the compression codec and fusion packing.
  std::byte* raw_data();
  const std::byte* raw_data() const;

  std::string describe() const;

 private:
  struct Storage {
    std::vector<std::byte> data;
  };

  Tensor(std::shared_ptr<Storage> storage, std::int64_t offset_elems,
         std::span<const std::int64_t> shape, DType dtype, sim::Device* device);
  // A zero-filled materialised tensor.
  static Tensor allocate(std::span<const std::int64_t> shape, DType dtype, sim::Device* device);

  void require_materialized(const char* what) const;

  // Element access reads the first five fields; the shape comes last.
  std::shared_ptr<Storage> storage_;  // null => phantom
  std::int64_t offset_elems_ = 0;
  std::int64_t numel_ = -1;  // -1 => undefined tensor
  DType dtype_ = DType::F32;
  std::uint8_t rank_ = 0;
  sim::Device* device_ = nullptr;
  std::array<std::int64_t, kMaxRank> dims_{};
};

using TensorList = std::vector<Tensor>;

// Total payload bytes of a tensor list (the fusion and alltoall paths).
std::size_t total_bytes(const TensorList& tensors);

}  // namespace mcrdl
