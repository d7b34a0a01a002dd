#include "src/tensor/workspace.h"

namespace dx {

Tensor* Workspace::Acquire(const Shape& shape) {
  if (cursor_ == slots_.size()) {
    slots_.push_back(std::make_unique<Tensor>());
  }
  Tensor* slot = slots_[cursor_++].get();
  if (slot->shape() != shape) {  // Warm slots skip the Shape copy entirely.
    slot->ResizeInPlace(shape);
  }
  return slot;
}

Tensor* Workspace::AcquireFlat(int64_t n) {
  if (cursor_ == slots_.size()) {
    slots_.push_back(std::make_unique<Tensor>());
  }
  Tensor* slot = slots_[cursor_++].get();
  if (slot->numel() != n || slot->ndim() != 1) {
    slot->ResizeInPlace({static_cast<int>(n)});
  }
  return slot;
}

}  // namespace dx
