// Host-side integer tensor used as the golden-model data type.
//
// Activations are unsigned quantization *codes* (0 .. 2^Q - 1), weights are
// signed two's-complement values — matching the PULP-NN convention where
// convolution kernels use pv.(s)dotusp (unsigned activation x signed
// weight). Layout is HWC (channel-minor), the layout PULP-NN and CMSIS-NN
// use for feature maps.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace xpulp::qnn {

struct Shape {
  int h = 1;
  int w = 1;
  int c = 1;

  int elems() const { return h * w * c; }
  bool operator==(const Shape&) const = default;
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape s) : shape_(s), data_(static_cast<size_t>(s.elems()), 0) {}

  const Shape& shape() const { return shape_; }
  int elems() const { return shape_.elems(); }

  i32& at(int y, int x, int c) { return data_[index(y, x, c)]; }
  i32 at(int y, int x, int c) const { return data_[index(y, x, c)]; }

  i32& flat(int i) {
    assert(i >= 0 && i < elems());
    return data_[static_cast<size_t>(i)];
  }
  i32 flat(int i) const {
    assert(i >= 0 && i < elems());
    return data_[static_cast<size_t>(i)];
  }

  const std::vector<i32>& data() const { return data_; }
  std::vector<i32>& data() { return data_; }

  bool operator==(const Tensor&) const = default;

 private:
  size_t index(int y, int x, int c) const {
    assert(y >= 0 && y < shape_.h && x >= 0 && x < shape_.w && c >= 0 &&
           c < shape_.c);
    return static_cast<size_t>((y * shape_.w + x) * shape_.c + c);
  }

  Shape shape_;
  std::vector<i32> data_;
};

/// The first element, in HWC order, where a device output differs from
/// its golden model.
struct Mismatch {
  int oy = 0, ox = 0, oc = 0;
  i32 device = 0, golden = 0;

  bool operator==(const Mismatch&) const = default;
  std::string to_string() const {
    return "(oy " + std::to_string(oy) + ", ox " + std::to_string(ox) +
           ", oc " + std::to_string(oc) + "): device " +
           std::to_string(device) + ", golden " + std::to_string(golden);
  }
};

/// The verdict of a golden check: nullopt when `device` equals `golden`,
/// else their first mismatching element. Throws SimError when the shapes
/// differ.
inline std::optional<Mismatch> first_mismatch(const Tensor& device,
                                              const Tensor& golden) {
  if (device.shape() != golden.shape()) {
    throw SimError("golden check: device and golden shapes differ");
  }
  if (device.data() == golden.data()) return std::nullopt;
  for (int i = 0; i < golden.elems(); ++i) {
    if (device.flat(i) != golden.flat(i)) {
      const int c = golden.shape().c;
      const int w = golden.shape().w;
      return Mismatch{i / c / w, i / c % w, i % c, device.flat(i),
                      golden.flat(i)};
    }
  }
  return std::nullopt;
}

/// A set of convolution filters: `count` filters of shape kh x kw x c each,
/// stored filter-major with HWC inside a filter — the exact order the
/// kernels stream weights in.
class FilterBank {
 public:
  FilterBank() = default;
  FilterBank(int count, Shape filter_shape)
      : count_(count),
        fshape_(filter_shape),
        data_(static_cast<size_t>(count) * filter_shape.elems(), 0) {}

  int count() const { return count_; }
  const Shape& filter_shape() const { return fshape_; }
  int filter_elems() const { return fshape_.elems(); }

  i32& at(int f, int ky, int kx, int c) { return data_[index(f, ky, kx, c)]; }
  i32 at(int f, int ky, int kx, int c) const { return data_[index(f, ky, kx, c)]; }

  /// Flat view of filter `f` in stream order.
  i32 flat(int f, int i) const {
    assert(f >= 0 && f < count_ && i >= 0 && i < filter_elems());
    return data_[static_cast<size_t>(f) * filter_elems() + i];
  }
  i32& flat(int f, int i) {
    assert(f >= 0 && f < count_ && i >= 0 && i < filter_elems());
    return data_[static_cast<size_t>(f) * filter_elems() + i];
  }

  const std::vector<i32>& data() const { return data_; }
  std::vector<i32>& data() { return data_; }

 private:
  size_t index(int f, int ky, int kx, int c) const {
    assert(f >= 0 && f < count_);
    return static_cast<size_t>(f) * fshape_.elems() +
           static_cast<size_t>((ky * fshape_.w + kx) * fshape_.c + c);
  }

  int count_ = 0;
  Shape fshape_;
  std::vector<i32> data_;
};

}  // namespace xpulp::qnn
