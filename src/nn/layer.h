// Layer: the building block of sequential models.
//
// Layers are stateless with respect to execution: Forward takes an input and
// returns an output (plus an optional auxiliary tensor such as a dropout mask
// or pooling argmax map), and Backward recomputes gradients from the recorded
// (input, output, aux) triple. This design makes reverse-mode differentiation
// from *any* internal layer straightforward — which is exactly what
// DeepXplore's neuron-coverage objective needs.
//
// Coverage neurons: following the DeepXplore reference implementation, a
// "neuron" is one output unit of a Dense layer or one output channel of a
// Conv2D layer (its activation value is the spatial mean). Other layers
// expose zero neurons.
#ifndef DX_SRC_NN_LAYER_H_
#define DX_SRC_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/util/serialize.h"

namespace dx {

class Rng;
class Workspace;

class Layer {
 public:
  virtual ~Layer() = default;

  // Stable type tag used by serialization ("dense", "conv2d", ...).
  virtual std::string Kind() const = 0;
  // Short human-readable description, e.g. "conv2d 6x(5x5) relu".
  virtual std::string Describe() const = 0;

  // Output shape for a given input shape; throws on incompatible input.
  virtual Shape OutputShape(const Shape& input_shape) const = 0;

  // Computes the layer output. `training` toggles dropout; `rng` is required
  // only when training with stochastic layers. If the layer needs state for
  // its backward pass beyond (input, output), it stores it in `*aux`.
  virtual Tensor Forward(const Tensor& input, bool training, Rng* rng, Tensor* aux) const = 0;

  // Given dLoss/dOutput in `grad_output`, returns dLoss/dInput. If
  // `param_grads` is non-null it must hold one zero-or-accumulating tensor per
  // parameter (same order as Params()); parameter gradients are added into it.
  // An individual EMPTY tensor in the vector means "this parameter's gradient
  // is discarded — skip its work" (see CheckParamGrads), so callers that only
  // need a subset never pay for the rest. Null means input-gradient only.
  virtual Tensor Backward(const Tensor& input, const Tensor& output,
                          const Tensor& grad_output, const Tensor& aux,
                          std::vector<Tensor>* param_grads) const = 0;

  // ---- Batch kernels: the one batched API ----------------------------------
  //
  // `ForwardBatchInto`/`BackwardBatchInto` run a whole [batch, ...] slab and
  // write into caller-provided storage instead of returning fresh tensors;
  // they are the currency of ExecutionPlan (src/nn/execution_plan.h), whose
  // slabs are reused across gradient-ascent iterations. Contract:
  //   * Numerics: the per-sample Forward/Backward above are the scalar
  //     reference oracle. BOTH directions of the hot layers (Dense, Conv2D)
  //     run the im2col/GEMM + SIMD path (src/nn/gemm.h, src/tensor/simd.h),
  //     which accumulates in a different order than the oracle — forward
  //     results match within the kernel forward tolerance of
  //     tests/test_util.h and backward results (grad-input via
  //     transposed-weight GEMM + Col2Im, grad-weight via GEMM-against-im2col)
  //     within the kernel backward tolerance, not bit-for-bit. A width-B call
  //     IS bit-identical to B width-1 calls, and across SIMD backends and
  //     thread counts (ascending-k FMA per output element at every width;
  //     threading partitions only over independent output rows / samples).
  //     All other layers' kernels are bit-identical to the per-sample oracle.
  //   * `ws` supplies scratch buffers and is never null (see
  //     src/tensor/workspace.h). Acquire in a deterministic order so the
  //     arena reaches a stable slot layout.
  //   * Built-in kernels only touch pre-existing storage once warm; an
  //     out-of-tree layer must implement both.

  // `output` is pre-shaped to [batch, ...OutputShape]; every element is
  // overwritten. When the layer records aux state it ResizeInPlace's `*aux`
  // to the batched aux shape and fills it (allocation-free once the tensor
  // has seen that capacity); layers without aux leave `*aux` untouched, so
  // callers should pass a tensor whose emptiness reflects "no aux recorded".
  virtual void ForwardBatchInto(const Tensor& input, int batch, bool training, Rng* rng,
                                Tensor* output, Tensor* aux, Workspace* ws) const = 0;

  // Writes dLoss/dInput into `grad_input`, which holds batch * |input
  // sample| elements; implementations treat it (and `grad_output`, which
  // only promises numel == output.numel()) as flat storage — geometry comes
  // from `input`/`output`. This shape looseness lets a plan run a batch-1
  // backward whose seed and final gradient are per-sample-shaped. Every
  // element of `grad_input` is overwritten; param grads (same convention as
  // Backward) accumulate across the batch.
  virtual void BackwardBatchInto(const Tensor& input, const Tensor& output,
                                 const Tensor& grad_output, const Tensor& aux, int batch,
                                 Tensor* grad_input, Workspace* ws,
                                 std::vector<Tensor>* param_grads) const = 0;

  // Trainable parameters (empty for parameterless layers).
  virtual std::vector<Tensor*> MutableParams() { return {}; }
  virtual std::vector<const Tensor*> Params() const { return {}; }

 protected:
  // Shared validation for the optional `param_grads` argument of the
  // backward entry points: null requests input-gradient only; otherwise the
  // vector must hold exactly Params().size() accumulators (throws
  // std::invalid_argument naming `who` if not). Individual empty tensors are
  // allowed and mean "skip this parameter's gradient".
  void CheckParamGrads(const std::vector<Tensor>* param_grads, const char* who) const;

  // Accumulator data pointer for parameter `i`, or nullptr when the caller
  // passed no vector or left that entry empty (gradient discarded).
  static float* GradData(std::vector<Tensor>* param_grads, size_t i) {
    return param_grads != nullptr && !(*param_grads)[i].empty()
               ? (*param_grads)[i].data()
               : nullptr;
  }

 public:

  // Number of coverage neurons this layer contributes.
  virtual int NumNeurons() const { return 0; }
  // Scalar activation of neuron `index` given one sample's output of this
  // layer (a per-sample view, e.g. one row of a plan trace slab). Throws
  // std::out_of_range for a bad index.
  virtual float NeuronValue(ConstTensorView output, int index) const;
  // Adds `weight * d(neuron_index)/d(output)` into `seed` (shaped like the
  // layer output); used to seed backprop for the coverage objective.
  virtual void AddNeuronSeed(Tensor* seed, int index, float weight) const;

  // Serializes constructor configuration (not parameters).
  virtual void SerializeConfig(BinaryWriter& writer) const = 0;
};

// One recorded per-sample forward pass through a Model (Model::Forward, the
// scalar oracle that training, losses and the standalone Fgsm run on).
// outputs[l] and aux[l] correspond to layer l; the input of layer l is
// outputs[l-1] (or `input` for l == 0).
struct ForwardTrace {
  Tensor input;
  std::vector<Tensor> outputs;
  std::vector<Tensor> aux;

  const Tensor& LayerInput(int layer) const {
    return layer == 0 ? input : outputs[static_cast<size_t>(layer) - 1];
  }
  const Tensor& Output() const { return outputs.back(); }
};

// One recorded *batched* forward pass: every tensor carries a leading batch
// dimension, so outputs[l] holds layer l's activations for all `batch`
// inputs of one ExecutionPlan::ForwardBatch call. This is the currency of the
// batched execution path: computed once per (input batch, model) and shared
// by the objective gradient, the difference check, and the coverage update.
struct BatchTrace {
  int batch = 0;
  Tensor input;                 // [batch, ...model_input_shape]
  std::vector<Tensor> outputs;  // outputs[l]: [batch, ...layer_l_output_shape]
  std::vector<Tensor> aux;      // aux[l]: [batch, ...] or empty

  const Tensor& LayerInput(int layer) const {
    return layer == 0 ? input : outputs[static_cast<size_t>(layer) - 1];
  }
  const Tensor& Output() const { return outputs.back(); }

  // Copy of sample `index` of layer `layer`'s output.
  Tensor SampleOutput(int layer, int index) const;
};

}  // namespace dx

#endif  // DX_SRC_NN_LAYER_H_
