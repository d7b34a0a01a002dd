// Workspace: a bump-style arena of reusable float buffers (wrapped as
// Tensors) for zero-allocation hot paths.
//
// Acquire() hands out the next slot, reshaped in place to the requested
// shape; Rewind() returns every slot to the pool in O(1) without freeing.
// Slot storage only ever grows, so once a loop's acquisition sequence has
// been seen (the "warm-up" iteration), every subsequent identical sequence
// is allocation-free. Callers that acquire in a deterministic order — layer
// kernels, execution plans — therefore reach a steady state with zero heap
// traffic per iteration.
//
// Acquired tensor contents are UNSPECIFIED (stale data from earlier uses);
// kernels must fully overwrite what they read back. Pointers returned by
// Acquire stay valid until the Workspace is destroyed (slots are held by
// unique_ptr), but a slot's *data* is logically reclaimed at the next
// Rewind.
//
// Not thread-safe: one Workspace per execution context.
#ifndef DX_SRC_TENSOR_WORKSPACE_H_
#define DX_SRC_TENSOR_WORKSPACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/tensor/tensor.h"

namespace dx {

class Workspace {
 public:
  Workspace() = default;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  // Borrows a tensor of `shape` from the arena. When the slot already holds
  // exactly this shape (the steady state of a deterministic acquisition
  // sequence) nothing is copied or resized — zero heap traffic.
  Tensor* Acquire(const Shape& shape);

  // Borrows a flat [n]-element slot for raw scratch whose shape is never
  // inspected (e.g. the dense kernel's transpose buffer). Reshapes only when
  // the element count changes, so no Shape object is constructed when warm.
  Tensor* AcquireFlat(int64_t n);

  // Returns all borrowed tensors to the pool (storage is kept).
  void Rewind() { cursor_ = 0; }

  // Number of slots ever created (stable once warm).
  size_t slots() const { return slots_.size(); }

 private:
  std::vector<std::unique_ptr<Tensor>> slots_;
  size_t cursor_ = 0;
};

}  // namespace dx

#endif  // DX_SRC_TENSOR_WORKSPACE_H_
