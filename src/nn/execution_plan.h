// ExecutionPlan: a compiled, pre-sized execution context for one
// (model, max batch) pair — the one batched execution path of a Model.
//
// Model::Compile(max_batch) sizes every buffer the batched forward and
// backward passes will ever touch up front:
//
//   * one output slab per layer (the plan-owned BatchTrace),
//   * a width-1 sample trace for the per-row part of the batched backward
//     and for coverage updates,
//   * the backward gradient chain (one buffer per layer boundary, plus the
//     output layer's when that layer is flat) and batched and per-sample
//     final input-gradient buffers,
//   * per-layer width-1 seed buffers,
//   * each layer's forward pack (Layer::ForwardPack: Dense's W^T and bias
//     row), and
//   * a Workspace arena (src/tensor/workspace.h) for layer-kernel scratch
//     (im2col patches, activation-grad intermediates, residual recompute).
//
// After the plan has executed once at a given width ("warm-up"), every
// subsequent ForwardBatch / BackwardRows / BackwardSample / SampleTrace call
// performs ZERO heap allocations: slabs are resized in place within reserved
// capacity and the arena reuses its slots. One caveat: the batched entry
// points and the per-sample BackwardSample share the per-layer backward
// scratch arenas, so *alternating* BackwardSample with a batched call on the
// same flat layers flips their scratch shapes between [width, ...] and
// [1, ...] and re-allocates Shape storage per flip — steady-state
// zero-allocation holds for a stable call pattern (the executor hot loop
// calls BackwardRows only; tests/alloc_test.cc enforces that path).
//
// Numerics: the plan runs the Layer::*Into kernels, whose hot paths (Dense,
// Conv2D) use im2col/GEMM + SIMD (src/nn/gemm.h, src/tensor/simd.h) in BOTH
// directions — the backward runs grad-input as a transposed-weight GEMM
// (conv scatters the column gradient back through Col2Im) and grad-weight as
// a GEMM against the im2col patch matrix. Plan results therefore match the
// per-sample scalar oracle (Model::Forward / BackwardInput) within the kernel
// ULP/abs tolerances of tests/test_util.h (forward tolerance forward,
// backward tolerance backward) rather than bit-for-bit. Plan results ARE bit-identical across SIMD
// backends, batch widths, worker counts, and intra-op thread counts — every
// output element is one fixed-order FMA chain and threading only partitions
// independent output rows (or samples), so the batch/worker determinism
// guarantee is unchanged.
//
// Lifetime & invalidation: the plan borrows the model and snapshots part of
// its weights. Dense forward computes from the pack the plan took at
// Compile (W^T and the bias), while conv forward and every backward read
// the parameters live. So changing weights under a live plan leaves it
// half old, half new: compile a new plan after changing weights, just as
// after structural changes (adding layers). Nothing in src/ does otherwise:
// Trainer::Fit updates weights on the by-value oracle and compiles no plan;
// Accuracy, Predict and every other ForwardChunks user compile a fresh
// plan per call; and no Session outlives a retraining of its models (the
// executor pools its plans for the Session's life, see session.h).
// Memory: a Dense layer keeps its last pack, and every plan compiled while
// the weights keep those bits shares it, so a model costs one W^T copy per
// Dense layer however many plans are alive; a plan compiled after a weight
// change holds a new copy, and the old one lives on while older plans hold
// it. Width may vary per call in [1, capacity]; compiling a larger batch
// later means a new plan.
//
// Not thread-safe: one plan per execution context (the batched executor
// pools one plan set per concurrent chunk).
#ifndef DX_SRC_NN_EXECUTION_PLAN_H_
#define DX_SRC_NN_EXECUTION_PLAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/nn/layer.h"
#include "src/nn/model.h"
#include "src/tensor/tensor.h"
#include "src/tensor/workspace.h"

namespace dx {

// A seed on one layer's per-sample output: the entry of one row into
// ExecutionPlan::BackwardRows, and the unit an Objective plans. The seed is
// zero except element `index`, set to `weight`, or — when `neuron` is set —
// what Layer::AddNeuronSeed(index, weight) adds for coverage neuron `index`.
// `layer` == kNone marks a row that takes no part.
struct LayerSeed {
  static constexpr int kNone = -1;
  int layer = kNone;
  int index = 0;
  float weight = 0.0f;
  bool neuron = false;
};

class ExecutionPlan {
 public:
  // Prefer Model::Compile(max_batch).
  ExecutionPlan(const Model& model, int max_batch);

  ExecutionPlan(ExecutionPlan&&) = default;
  ExecutionPlan& operator=(ExecutionPlan&&) = default;

  const Model& model() const { return *model_; }
  int capacity() const { return capacity_; }
  // Width of the current trace (0 before the first forward).
  int width() const { return width_; }

  // Runs the model over `input` ([width, ...input_shape] data; only numel is
  // inspected) into the plan-owned trace and returns it. Counts `width`
  // forward passes on the model, exactly like `width` Model::Forward calls.
  const BatchTrace& ForwardBatch(const Tensor& input, int width);
  // The current trace (valid after ForwardBatch; width() samples wide).
  const BatchTrace& trace() const { return trace_; }

  // The one chunked inference loop outside the executor: pushes `inputs`
  // through the plan in chunks of capacity() samples, stacking each chunk
  // straight into the trace, and calls visit(begin, trace) after each
  // chunk's forward — sample b of the trace is inputs[begin + b]. Every
  // input must have the model's input shape (std::invalid_argument naming
  // the first that does not).
  void ForwardChunks(const std::vector<const Tensor*>& inputs,
                     const std::function<void(size_t begin, const BatchTrace& trace)>& visit);

  // Batched backward through the current trace: d(seed·out_from)/d(input),
  // seed shaped like trace().outputs[from_layer]. Returns a reused
  // [width, ...input_shape] buffer whose sample b matches Model::BackwardInput
  // on sample b within the kernel backward tolerance (see the numerics note
  // above).
  //
  // `param_grads` selects the gradient mode. The default (nullptr) is
  // INPUT-ONLY: no parameter gradient is computed or allocated anywhere in
  // the chain — the mode the gradient-ascent hot loop runs in, and the only
  // mode with the steady-state zero-allocation guarantee. Passing a vector
  // aligned with Model::MutableParams() (see InitParamGrads) additionally
  // accumulates dL/dW into it, layer by layer; an EMPTY tensor entry skips
  // that parameter (its gradient is neither computed nor touched). The
  // vector's size must match exactly — anything else throws.
  const Tensor& BackwardInputBatch(int from_layer, const Tensor& seed,
                                   std::vector<Tensor>* param_grads = nullptr);

  // Batched backward of one seeded term per row — the executor's gradient
  // half. rows[b] seeds sample b of the current trace at its own layer
  // (LayerSeed::kNone: sample b takes no part); rows.size() must equal
  // width(). Returns a reused [width, ...input_shape] buffer whose row b is
  // bit-identical to BackwardSample(b, rows[b].layer, <rows[b]'s seed>);
  // rows without a seed hold unspecified values.
  //
  // Rows stay batched while the layer's per-sample output is flat (dense,
  // softmax, flatten, dropout after a flatten): each such layer runs one
  // kernel call over all rows, and a row joins the chain when the chain
  // reaches the row's layer. Below the first layer with a spatial output (conv, pool,
  // batchnorm, residual) each row finishes alone through BackwardSample's
  // width-1 code — conv backward already runs one GEMM per sample, so
  // batching it would only multiply its scratch. Overwrites the AcquireSeed
  // buffers. Throws std::invalid_argument for a wrong-length `rows` and
  // std::out_of_range for a bad layer or element index.
  const Tensor& BackwardRows(const std::vector<LayerSeed>& rows);

  // ---- Per-sample entry points -------------------------------------------

  // A reusable zero-filled seed buffer shaped like layer `layer`'s
  // per-sample output. Valid until the next AcquireSeed(layer) or
  // BackwardRows call.
  Tensor& AcquireSeed(int layer);

  // d(seed·out_from of sample `pos`)/d(input): backpropagates through a
  // width-1 copy of sample `pos` of the current trace (cached across calls
  // for the same pos). `seed` needs out-numel elements (shape free, e.g. an
  // AcquireSeed buffer). Returns a reused input-shaped buffer matching
  // Model::BackwardInput on sample `pos` within the kernel backward
  // tolerance — and bit-identical to BackwardInputBatch's and BackwardRows'
  // row for this sample at any width.
  const Tensor& BackwardSample(int pos, int from_layer, const Tensor& seed);

  // Width-1 trace holding sample `pos` of the current trace (feeds
  // CoverageMetric::UpdateBatch without allocating).
  const BatchTrace& SampleTrace(int pos);

  // ---- Profiling ---------------------------------------------------------

  // When enabled, the plan accumulates wall time spent inside the backward
  // entry points (BackwardInputBatch, BackwardRows and BackwardSample
  // bodies; BackwardRows' includes its seed writes). Off by default; the
  // cost when off is two steady-clock reads per backward call, noise next
  // to a single layer's GEMM.
  void set_profiling(bool on) { profiling_ = on; }
  // Returns the accumulated backward-layer seconds and resets the counter.
  double ConsumeBackwardSeconds() {
    const double s = backward_seconds_;
    backward_seconds_ = 0.0;
    return s;
  }

 private:
  // Runs the layer chain over the `width` samples staged in trace_.input.
  const BatchTrace& RunForward(int width);
  // Copies sample `pos` into sample_ unless it is already there.
  void EnsureSample(int pos);
  // Layer `l`'s batched backward over the current trace: `grad` (wrt its
  // output) in, the gradient wrt its input out (bw_[l], or
  // bw_input_batch_ for layer 0), which it returns.
  Tensor* BackwardLayerBatch(int l, const Tensor& grad, std::vector<Tensor>* layer_grads);
  // BackwardSample's body without argument checks or timing: layers
  // from_layer..0 at width 1 over sample `pos`.
  const Tensor& BackwardSampleChain(int pos, int from_layer, const Tensor& seed);
  // Zero-fills seeds_[seed.layer] and writes `seed` into it.
  Tensor& WriteSeed(const LayerSeed& seed);

  const Model* model_;
  int capacity_;
  int width_ = 0;
  int64_t input_numel_;            // Per-sample input elements.
  std::vector<int64_t> out_numel_; // Per-layer per-sample output elements.
  // Lowest layer of the flat top run: layers first_flat_..end have flat
  // per-sample outputs and run batched in BackwardRows (num_layers when
  // the output layer itself is spatial).
  int first_flat_;
  // Each layer's forward pack, taken at construction (null for layers
  // without one): the plan's snapshot of the parameters its forward reads.
  std::vector<std::shared_ptr<const Tensor>> packs_;
  // (offset, count) of each layer's slice of the flat param-grad vector,
  // cached at compile time for the optional param-grads backward mode.
  std::vector<std::pair<int, int>> param_slices_;
  size_t total_param_grads_ = 0;
  bool profiling_ = false;
  double backward_seconds_ = 0.0;

  BatchTrace trace_;    // Slabs at the current width.
  BatchTrace sample_;   // Width-1 sample trace.
  int sample_pos_ = -1; // Which sample sample_ holds (-1: stale).

  std::vector<Tensor> bw_;   // bw_[l] (l >= 1): grad wrt layer l's input.
  Tensor bw_output_;         // Grad wrt the output layer's output, [width, out]
                             // (allocated only when that layer is flat).
  Tensor bw_input_batch_;    // Final input grad, [width, ...input_shape].
  Tensor bw_input_sample_;   // Final input grad, per-sample shape.
  std::vector<Tensor> seeds_;  // Per-layer per-sample seed buffers.
  // One scratch arena per (layer, direction): each arena then sees a single
  // deterministic acquisition sequence, so its slots keep stable shapes and
  // every warm Acquire is a no-op (a shared arena would flip slot shapes
  // between layers and re-allocate Shape storage each flip).
  std::vector<Workspace> fwd_ws_;
  std::vector<Workspace> bwd_ws_;
};

// Plan capacity for pushing `count` inputs through ForwardChunks in chunks
// of at most `width`: min(count, width), and at least 1.
inline int ChunkCapacity(size_t count, int width) {
  return static_cast<int>(std::clamp<size_t>(count, 1, static_cast<size_t>(width)));
}

// Chunk width of the inference helpers that have no session batch size to
// follow (Trainer::Accuracy / MseOf, MajorityVoteLabels). Results do not
// depend on it: a width-B forward is bit-identical to B width-1 forwards.
inline constexpr int kInferenceChunk = 16;

}  // namespace dx

#endif  // DX_SRC_NN_EXECUTION_PLAN_H_
