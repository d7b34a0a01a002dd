// Sequential model: an ordered list of layers with a fixed input shape.
//
// Key capability for DeepXplore: reverse-mode differentiation can start at
// *any* layer's output with an arbitrary seed gradient (BackwardInput), which
// implements ∂(neuron or class probability)/∂(input) — Algorithm 1 line 11.
#ifndef DX_SRC_NN_MODEL_H_
#define DX_SRC_NN_MODEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/nn/layer.h"
#include "src/tensor/tensor.h"

namespace dx {

class ExecutionPlan;
class Rng;

class Model {
 public:
  Model() = default;
  Model(std::string name, Shape input_shape);

  // Moves carry the forward-pass counter value (std::atomic is not movable,
  // so these cannot be defaulted).
  Model(Model&& other) noexcept;
  Model& operator=(Model&& other) noexcept;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  // Appends a layer; validates shape compatibility eagerly.
  void Add(std::unique_ptr<Layer> layer);
  template <typename L, typename... Args>
  L& Emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    Add(std::move(layer));
    return ref;
  }

  const std::string& name() const { return name_; }
  const Shape& input_shape() const { return input_shape_; }
  const Shape& output_shape() const;
  int num_layers() const { return static_cast<int>(layers_.size()); }
  Layer& layer(int index) { return *layers_[static_cast<size_t>(index)]; }
  const Layer& layer(int index) const { return *layers_[static_cast<size_t>(index)]; }
  // Output shape of layer `index` (precomputed at Add time).
  const Shape& layer_output_shape(int index) const {
    return layer_shapes_[static_cast<size_t>(index)];
  }

  // Runs the network, recording every layer's output (and aux state).
  ForwardTrace Forward(const Tensor& input, bool training = false, Rng* rng = nullptr) const;

  // Counts per-sample forward passes through this model (Forward adds 1, a
  // width-B ExecutionPlan::ForwardBatch adds B). Thread-safe; used by tests
  // and RunStats to assert the single-pass guarantee of the batched path.
  int64_t forward_passes() const { return forward_passes_.load(std::memory_order_relaxed); }
  void ResetForwardPasses() const { forward_passes_.store(0, std::memory_order_relaxed); }
  // Adds `n` passes to the counter — for execution engines (ExecutionPlan)
  // whose layer loops bypass Model::Forward but must keep the single-pass
  // accounting exact.
  void CountForwardPasses(int64_t n) const {
    forward_passes_.fetch_add(n, std::memory_order_relaxed);
  }

  // Compiles a zero-allocation execution context for batches of up to
  // `max_batch` samples: pre-sized layer slabs, backward scratch, and trace
  // storage reused across iterations (src/nn/execution_plan.h). The plan
  // borrows this model and is invalidated by structural changes (Add) and by
  // weight changes: it snapshots each Dense layer's forward weights here.
  ExecutionPlan Compile(int max_batch) const;

  // Backpropagates `seed` (shaped like layer `from_layer`'s output) down to
  // the model input and returns d<seed·output_{from_layer}>/d(input).
  Tensor BackwardInput(const ForwardTrace& trace, int from_layer, Tensor seed) const;

  // Same, but also accumulates parameter gradients into `param_grads`, which
  // must be aligned with MutableParams() (see InitParamGrads).
  Tensor BackwardParams(const ForwardTrace& trace, int from_layer, Tensor seed,
                        std::vector<Tensor>* param_grads) const;

  // All trainable parameters in layer order.
  std::vector<Tensor*> MutableParams();
  std::vector<const Tensor*> Params() const;
  int64_t NumParams() const;

  // Zero tensors shaped like MutableParams(), for gradient accumulation.
  std::vector<Tensor> InitParamGrads() const;

  // Total coverage neurons across layers.
  int TotalNeurons() const;

  // Multi-line architecture summary.
  std::string Summary() const;

  // Whole-model (config + weights) byte-string round trip.
  std::string Serialize() const;
  static Model Deserialize(const std::string& blob);

  // Maps the flat param-grad vector (MutableParams/InitParamGrads order) to
  // each layer's slice. Public so execution engines (ExecutionPlan) can
  // route per-layer parameter-gradient views without duplicating the layout.
  std::vector<std::pair<int, int>> ParamSlices() const;  // (offset, count) per layer

 private:
  std::string name_;
  Shape input_shape_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Shape> layer_shapes_;
  // Per-sample forward-pass counter (mutable: Forward is logically const).
  mutable std::atomic<int64_t> forward_passes_{0};
};

}  // namespace dx

#endif  // DX_SRC_NN_MODEL_H_
