#include "src/tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace mcrdl {

namespace {

std::span<const std::int64_t> as_span(Tensor::Shape shape) { return {shape.begin(), shape.size()}; }

std::int64_t shape_numel(std::span<const std::int64_t> shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    MCRDL_REQUIRE(d >= 0, "negative dimension in tensor shape");
    n *= d;
  }
  return n;
}

// Reads element i of a raw buffer as double, dispatching on dtype.
double read_element(const std::byte* base, DType dtype, std::int64_t i) {
  switch (dtype) {
    case DType::F16: {
      std::uint16_t v;
      std::memcpy(&v, base + i * 2, 2);
      return half_to_float(v);
    }
    case DType::BF16: {
      std::uint16_t v;
      std::memcpy(&v, base + i * 2, 2);
      return bfloat16_to_float(v);
    }
    case DType::F32: {
      float v;
      std::memcpy(&v, base + i * 4, 4);
      return v;
    }
    case DType::F64: {
      double v;
      std::memcpy(&v, base + i * 8, 8);
      return v;
    }
    case DType::I32: {
      std::int32_t v;
      std::memcpy(&v, base + i * 4, 4);
      return static_cast<double>(v);
    }
    case DType::I64: {
      std::int64_t v;
      std::memcpy(&v, base + i * 8, 8);
      return static_cast<double>(v);
    }
    case DType::U8: {
      std::uint8_t v;
      std::memcpy(&v, base + i, 1);
      return static_cast<double>(v);
    }
  }
  return 0.0;
}

void write_element(std::byte* base, DType dtype, std::int64_t i, double value) {
  switch (dtype) {
    case DType::F16: {
      std::uint16_t v = float_to_half(static_cast<float>(value));
      std::memcpy(base + i * 2, &v, 2);
      return;
    }
    case DType::BF16: {
      std::uint16_t v = float_to_bfloat16(static_cast<float>(value));
      std::memcpy(base + i * 2, &v, 2);
      return;
    }
    case DType::F32: {
      float v = static_cast<float>(value);
      std::memcpy(base + i * 4, &v, 4);
      return;
    }
    case DType::F64: {
      std::memcpy(base + i * 8, &value, 8);
      return;
    }
    case DType::I32: {
      std::int32_t v = static_cast<std::int32_t>(std::llround(value));
      std::memcpy(base + i * 4, &v, 4);
      return;
    }
    case DType::I64: {
      std::int64_t v = static_cast<std::int64_t>(std::llround(value));
      std::memcpy(base + i * 8, &v, 8);
      return;
    }
    case DType::U8: {
      std::uint8_t v = static_cast<std::uint8_t>(std::llround(value));
      std::memcpy(base + i, &v, 1);
      return;
    }
  }
}

double apply_reduce(double a, double b, ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum:
    case ReduceOp::Avg:  // accumulated as Sum; caller divides at the end
      return a + b;
    case ReduceOp::Prod:
      return a * b;
    case ReduceOp::Min:
      return std::min(a, b);
    case ReduceOp::Max:
      return std::max(a, b);
  }
  return a;
}

}  // namespace

Tensor::Tensor(std::shared_ptr<Storage> storage, std::int64_t offset_elems,
               std::span<const std::int64_t> shape, DType dtype, sim::Device* device)
    : storage_(std::move(storage)),
      offset_elems_(offset_elems),
      numel_(shape_numel(shape)),
      dtype_(dtype),
      rank_(static_cast<std::uint8_t>(shape.size())),
      device_(device) {
  if (shape.size() > kMaxRank) {
    throw InvalidArgument("tensor rank " + std::to_string(shape.size()) + " exceeds the maximum " +
                          std::to_string(kMaxRank));
  }
  std::copy(shape.begin(), shape.end(), dims_.begin());
}

Tensor Tensor::allocate(std::span<const std::int64_t> shape, DType dtype, sim::Device* device) {
  Tensor t(nullptr, 0, shape, dtype, device);
  t.storage_ = std::make_shared<Storage>();
  t.storage_->data.resize(static_cast<std::size_t>(t.numel_) * dtype_size(dtype), std::byte{0});
  return t;
}

Tensor Tensor::zeros(Shape shape, DType dtype, sim::Device* device) {
  return allocate(as_span(shape), dtype, device);
}

Tensor Tensor::full(Shape shape, DType dtype, double value, sim::Device* device) {
  Tensor t = zeros(shape, dtype, device);
  t.fill(value);
  return t;
}

Tensor Tensor::arange(std::int64_t n, DType dtype, sim::Device* device) {
  MCRDL_REQUIRE(n >= 0, "arange length must be non-negative");
  Tensor t = zeros({n}, dtype, device);
  for (std::int64_t i = 0; i < n; ++i) t.set(i, static_cast<double>(i));
  return t;
}

Tensor Tensor::random_uniform(Shape shape, DType dtype, sim::Device* device, Rng& rng, double lo,
                              double hi) {
  Tensor t = zeros(shape, dtype, device);
  for (std::int64_t i = 0; i < t.numel(); ++i) t.set(i, rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::phantom(Shape shape, DType dtype, sim::Device* device) {
  return Tensor(nullptr, 0, as_span(shape), dtype, device);
}

void Tensor::require_materialized(const char* what) const {
  MCRDL_REQUIRE(defined(), "operation on undefined tensor");
  if (!materialized()) {
    throw InvalidArgument(std::string(what) + " requires a materialized tensor (this one is phantom)");
  }
}

double Tensor::get(std::int64_t i) const {
  require_materialized("get()");
  MCRDL_REQUIRE(i >= 0 && i < numel_, "tensor index out of range");
  return read_element(storage_->data.data() + offset_elems_ * dtype_size(dtype_), dtype_, i);
}

void Tensor::set(std::int64_t i, double v) {
  require_materialized("set()");
  MCRDL_REQUIRE(i >= 0 && i < numel_, "tensor index out of range");
  write_element(storage_->data.data() + offset_elems_ * dtype_size(dtype_), dtype_, i, v);
}

std::vector<double> Tensor::to_vector() const {
  require_materialized("to_vector()");
  std::vector<double> out(static_cast<std::size_t>(numel_));
  for (std::int64_t i = 0; i < numel_; ++i) out[static_cast<std::size_t>(i)] = get(i);
  return out;
}

Tensor Tensor::view(std::int64_t offset_elems, std::int64_t count) const {
  MCRDL_REQUIRE(defined(), "view of undefined tensor");
  MCRDL_REQUIRE(offset_elems >= 0 && count >= 0 && offset_elems + count <= numel_,
                "view range out of bounds");
  const std::int64_t dims[] = {count};
  if (!materialized()) return Tensor(nullptr, 0, dims, dtype_, device_);
  return Tensor(storage_, offset_elems_ + offset_elems, dims, dtype_, device_);
}

Tensor Tensor::clone() const {
  MCRDL_REQUIRE(defined(), "clone of undefined tensor");
  if (!materialized()) return *this;
  Tensor out = allocate(shape(), dtype_, device_);
  std::memcpy(out.raw_data(), raw_data(), bytes());
  return out;
}

void Tensor::copy_from(const Tensor& src) {
  MCRDL_REQUIRE(defined() && src.defined(), "copy_from with undefined tensor");
  MCRDL_REQUIRE(numel() == src.numel(), "copy_from numel mismatch");
  MCRDL_REQUIRE(dtype_ == src.dtype_, "copy_from dtype mismatch");
  if (!materialized() || !src.materialized()) return;
  std::memmove(raw_data(), src.raw_data(), bytes());
}

void Tensor::fill(double v) {
  if (!materialized()) return;
  for (std::int64_t i = 0; i < numel_; ++i) set(i, v);
}

void Tensor::reduce_inplace(const Tensor& other, ReduceOp op) {
  MCRDL_REQUIRE(defined() && other.defined(), "reduce_inplace with undefined tensor");
  MCRDL_REQUIRE(numel() == other.numel(), "reduce_inplace numel mismatch");
  MCRDL_REQUIRE(dtype_ == other.dtype_, "reduce_inplace dtype mismatch");
  if (!materialized() || !other.materialized()) return;
  for (std::int64_t i = 0; i < numel_; ++i) set(i, apply_reduce(get(i), other.get(i), op));
}

void Tensor::scale(double factor) {
  if (!materialized()) return;
  for (std::int64_t i = 0; i < numel_; ++i) set(i, get(i) * factor);
}

bool Tensor::allclose(const Tensor& other, double atol, double rtol) const {
  require_materialized("allclose()");
  other.require_materialized("allclose()");
  if (numel() != other.numel()) return false;
  for (std::int64_t i = 0; i < numel_; ++i) {
    const double a = get(i);
    const double b = other.get(i);
    if (std::abs(a - b) > atol + rtol * std::abs(b)) return false;
  }
  return true;
}

std::byte* Tensor::raw_data() {
  require_materialized("raw_data()");
  return storage_->data.data() + offset_elems_ * dtype_size(dtype_);
}

const std::byte* Tensor::raw_data() const {
  require_materialized("raw_data()");
  return storage_->data.data() + offset_elems_ * dtype_size(dtype_);
}

std::string Tensor::describe() const {
  std::ostringstream out;
  out << "Tensor(";
  if (!defined()) {
    out << "undefined)";
    return out.str();
  }
  out << dtype_name(dtype_) << ", [";
  for (std::size_t i = 0; i < rank_; ++i) {
    if (i) out << ",";
    out << dims_[i];
  }
  out << "]";
  if (!materialized()) out << ", phantom";
  out << ")";
  return out.str();
}

std::size_t total_bytes(const TensorList& tensors) {
  std::size_t sum = 0;
  for (const Tensor& t : tensors) sum += t.bytes();
  return sum;
}

}  // namespace mcrdl
