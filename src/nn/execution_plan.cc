#include "src/nn/execution_plan.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/tensor/ops.h"
#include "src/util/timer.h"

namespace dx {

ExecutionPlan::ExecutionPlan(const Model& model, int max_batch)
    : model_(&model), capacity_(max_batch) {
  if (max_batch < 1) {
    throw std::invalid_argument("ExecutionPlan: max_batch must be >= 1");
  }
  const int num_layers = model.num_layers();
  if (num_layers == 0) {
    throw std::invalid_argument("ExecutionPlan: model has no layers");
  }
  input_numel_ = NumElements(model.input_shape());

  // Full-capacity slabs up front: later width changes only shrink/grow the
  // leading dimension within this storage (SetBatchDim — allocation-free).
  trace_.batch = 0;
  trace_.input = Tensor(BatchedShape(max_batch, model.input_shape()));
  trace_.outputs.reserve(static_cast<size_t>(num_layers));
  trace_.aux.resize(static_cast<size_t>(num_layers));
  sample_.batch = 1;
  sample_.input = Tensor(BatchedShape(1, model.input_shape()));
  sample_.outputs.reserve(static_cast<size_t>(num_layers));
  sample_.aux.resize(static_cast<size_t>(num_layers));
  bw_.resize(static_cast<size_t>(num_layers));
  fwd_ws_.resize(static_cast<size_t>(num_layers));
  bwd_ws_.resize(static_cast<size_t>(num_layers));
  seeds_.reserve(static_cast<size_t>(num_layers));
  out_numel_.reserve(static_cast<size_t>(num_layers));
  packs_.reserve(static_cast<size_t>(num_layers));
  for (int l = 0; l < num_layers; ++l) {
    packs_.push_back(model.layer(l).ForwardPack());
    const Shape& out_shape = model.layer_output_shape(l);
    out_numel_.push_back(NumElements(out_shape));
    trace_.outputs.emplace_back(BatchedShape(max_batch, out_shape));
    sample_.outputs.emplace_back(BatchedShape(1, out_shape));
    seeds_.emplace_back(out_shape);
    if (l >= 1) {
      // Gradient wrt layer l's input == layer l-1's output.
      bw_[static_cast<size_t>(l)] =
          Tensor(BatchedShape(max_batch, model.layer_output_shape(l - 1)));
    }
  }
  first_flat_ = num_layers;
  while (first_flat_ > 0 && model.layer_output_shape(first_flat_ - 1).size() == 1) {
    --first_flat_;
  }
  if (first_flat_ < num_layers) {
    bw_output_ = Tensor(BatchedShape(max_batch, model.layer_output_shape(num_layers - 1)));
  }
  bw_input_batch_ = Tensor(BatchedShape(max_batch, model.input_shape()));
  bw_input_sample_ = Tensor(model.input_shape());
  param_slices_ = model.ParamSlices();
  total_param_grads_ = model.Params().size();
}

const BatchTrace& ExecutionPlan::ForwardBatch(const Tensor& input, int width) {
  if (width < 1 || width > capacity_) {
    throw std::invalid_argument("ExecutionPlan::ForwardBatch: width " +
                                std::to_string(width) + " outside [1, " +
                                std::to_string(capacity_) + "]");
  }
  if (input.numel() != input_numel_ * width) {
    throw std::invalid_argument("ExecutionPlan::ForwardBatch: bad input size");
  }
  trace_.input.SetBatchDim(width);
  std::copy(input.data(), input.data() + input.numel(), trace_.input.data());
  return RunForward(width);
}

void ExecutionPlan::ForwardChunks(
    const std::vector<const Tensor*>& inputs,
    const std::function<void(size_t begin, const BatchTrace& trace)>& visit) {
  const Shape& in_shape = model_->input_shape();
  for (size_t begin = 0; begin < inputs.size(); begin += static_cast<size_t>(capacity_)) {
    const int width =
        static_cast<int>(std::min(inputs.size() - begin, static_cast<size_t>(capacity_)));
    trace_.input.SetBatchDim(width);
    float* dst = trace_.input.data();
    for (int b = 0; b < width; ++b) {
      const size_t i = begin + static_cast<size_t>(b);
      if (inputs[i]->shape() != in_shape) {
        throw std::invalid_argument("ExecutionPlan::ForwardChunks: input " + std::to_string(i) +
                                    " has shape " + ShapeToString(inputs[i]->shape()) +
                                    ", model " + model_->name() + " expects " +
                                    ShapeToString(in_shape));
      }
      std::copy(inputs[i]->data(), inputs[i]->data() + input_numel_,
                dst + static_cast<int64_t>(b) * input_numel_);
    }
    visit(begin, RunForward(width));
  }
}

const BatchTrace& ExecutionPlan::RunForward(int width) {
  width_ = width;
  sample_pos_ = -1;
  trace_.batch = width;
  const Tensor* cur = &trace_.input;
  for (int l = 0; l < model_->num_layers(); ++l) {
    Tensor& out = trace_.outputs[static_cast<size_t>(l)];
    out.SetBatchDim(width);
    Workspace& ws = fwd_ws_[static_cast<size_t>(l)];
    ws.Rewind();
    model_->layer(l).ForwardBatchPacked(packs_[static_cast<size_t>(l)].get(), *cur, width,
                                        /*training=*/false, /*rng=*/nullptr, &out,
                                        &trace_.aux[static_cast<size_t>(l)], &ws);
    cur = &out;
  }
  model_->CountForwardPasses(width);
  return trace_;
}

const Tensor& ExecutionPlan::BackwardInputBatch(int from_layer, const Tensor& seed,
                                                std::vector<Tensor>* param_grads) {
  if (width_ == 0) {
    throw std::logic_error("ExecutionPlan::BackwardInputBatch: no trace (run ForwardBatch)");
  }
  if (from_layer < 0 || from_layer >= model_->num_layers()) {
    throw std::out_of_range("ExecutionPlan::BackwardInputBatch: bad from_layer");
  }
  if (seed.numel() != out_numel_[static_cast<size_t>(from_layer)] * width_) {
    throw std::invalid_argument("ExecutionPlan::BackwardInputBatch: seed size mismatch");
  }
  if (param_grads != nullptr && param_grads->size() != total_param_grads_) {
    throw std::invalid_argument("ExecutionPlan::BackwardInputBatch: expected " +
                                std::to_string(total_param_grads_) +
                                " param grad tensors, got " +
                                std::to_string(param_grads->size()));
  }
  Timer timer;
  const Tensor* grad = &seed;
  for (int l = from_layer; l >= 0; --l) {
    // Input-only mode (param_grads == nullptr, the hot loop) passes nullptr
    // straight through — no view vector, no allocation. The param-grads mode
    // moves each layer's slice of the flat vector out, hands it to the
    // layer, and moves it back (Model::BackwardParams' view pattern).
    std::vector<Tensor> view;
    std::vector<Tensor>* layer_grads = nullptr;
    if (param_grads != nullptr && param_slices_[static_cast<size_t>(l)].second > 0) {
      const auto [offset, count] = param_slices_[static_cast<size_t>(l)];
      view.reserve(static_cast<size_t>(count));
      for (int i = 0; i < count; ++i) {
        view.push_back(std::move((*param_grads)[static_cast<size_t>(offset + i)]));
      }
      layer_grads = &view;
    }
    grad = BackwardLayerBatch(l, *grad, layer_grads);
    if (layer_grads != nullptr) {
      const auto [offset, count] = param_slices_[static_cast<size_t>(l)];
      for (int i = 0; i < count; ++i) {
        (*param_grads)[static_cast<size_t>(offset + i)] =
            std::move(view[static_cast<size_t>(i)]);
      }
    }
  }
  if (profiling_) {
    backward_seconds_ += timer.ElapsedSeconds();
  }
  return bw_input_batch_;
}

Tensor* ExecutionPlan::BackwardLayerBatch(int l, const Tensor& grad,
                                          std::vector<Tensor>* layer_grads) {
  Tensor* gi = l >= 1 ? &bw_[static_cast<size_t>(l)] : &bw_input_batch_;
  gi->SetBatchDim(width_);
  Workspace& ws = bwd_ws_[static_cast<size_t>(l)];
  ws.Rewind();
  model_->layer(l).BackwardBatchInto(trace_.LayerInput(l), trace_.outputs[static_cast<size_t>(l)],
                                     grad, trace_.aux[static_cast<size_t>(l)], width_, gi, &ws,
                                     layer_grads);
  return gi;
}

const Tensor& ExecutionPlan::BackwardRows(const std::vector<LayerSeed>& rows) {
  if (width_ == 0) {
    throw std::logic_error("ExecutionPlan::BackwardRows: no trace (run ForwardBatch)");
  }
  if (rows.size() != static_cast<size_t>(width_)) {
    throw std::invalid_argument("ExecutionPlan::BackwardRows: " + std::to_string(rows.size()) +
                                " rows for a width-" + std::to_string(width_) + " trace");
  }
  int top = LayerSeed::kNone;
  for (const LayerSeed& row : rows) {
    if (row.layer < LayerSeed::kNone || row.layer >= model_->num_layers()) {
      throw std::out_of_range("ExecutionPlan::BackwardRows: bad layer " +
                              std::to_string(row.layer));
    }
    if (row.layer != LayerSeed::kNone && !row.neuron &&
        (row.index < 0 || row.index >= out_numel_[static_cast<size_t>(row.layer)])) {
      throw std::out_of_range("ExecutionPlan::BackwardRows: bad element index " +
                              std::to_string(row.index));
    }
    top = std::max(top, row.layer);
  }
  Timer timer;
  bw_input_batch_.SetBatchDim(width_);
  // The flat top run, batched. The chain starts at the highest seeded layer
  // with every row zero; a row's seed replaces its zero row when the chain
  // reaches its layer.
  if (top >= first_flat_) {
    const int last = model_->num_layers() - 1;
    Tensor* grad = top == last ? &bw_output_ : &bw_[static_cast<size_t>(top) + 1];
    grad->SetBatchDim(width_);
    grad->Fill(0.0f);
    for (int l = top; l >= first_flat_; --l) {
      const int64_t stride = out_numel_[static_cast<size_t>(l)];
      for (int b = 0; b < width_; ++b) {
        if (rows[static_cast<size_t>(b)].layer == l) {
          const Tensor& seed = WriteSeed(rows[static_cast<size_t>(b)]);
          std::copy(seed.data(), seed.data() + stride,
                    grad->data() + static_cast<int64_t>(b) * stride);
        }
      }
      grad = BackwardLayerBatch(l, *grad, nullptr);
    }
  }
  // Below the flat run, row by row: a row seeded above continues from its
  // row of the chain, a row seeded here starts from its own seed.
  if (first_flat_ > 0) {
    const int below = first_flat_ - 1;
    const int64_t stride = out_numel_[static_cast<size_t>(below)];
    for (int b = 0; b < width_; ++b) {
      const LayerSeed& row = rows[static_cast<size_t>(b)];
      if (row.layer == LayerSeed::kNone) {
        continue;
      }
      const Tensor* seed;
      if (row.layer >= first_flat_) {
        Tensor& carried = seeds_[static_cast<size_t>(below)];
        const float* src = bw_[static_cast<size_t>(first_flat_)].data() + b * stride;
        std::copy(src, src + stride, carried.data());
        seed = &carried;
      } else {
        seed = &WriteSeed(row);
      }
      const Tensor& g = BackwardSampleChain(b, std::min(row.layer, below), *seed);
      std::copy(g.data(), g.data() + input_numel_, bw_input_batch_.data() + b * input_numel_);
    }
  }
  if (profiling_) {
    backward_seconds_ += timer.ElapsedSeconds();
  }
  return bw_input_batch_;
}

Tensor& ExecutionPlan::WriteSeed(const LayerSeed& seed) {
  Tensor& buffer = AcquireSeed(seed.layer);
  if (seed.neuron) {
    model_->layer(seed.layer).AddNeuronSeed(&buffer, seed.index, seed.weight);
  } else {
    buffer[seed.index] = seed.weight;
  }
  return buffer;
}

Tensor& ExecutionPlan::AcquireSeed(int layer) {
  if (layer < 0 || layer >= model_->num_layers()) {
    throw std::out_of_range("ExecutionPlan::AcquireSeed: bad layer");
  }
  Tensor& seed = seeds_[static_cast<size_t>(layer)];
  seed.Fill(0.0f);
  return seed;
}

void ExecutionPlan::EnsureSample(int pos) {
  if (pos < 0 || pos >= width_) {
    throw std::out_of_range("ExecutionPlan: sample position out of range");
  }
  if (sample_pos_ == pos) {
    return;
  }
  const float* in = trace_.input.data() + static_cast<size_t>(pos) * input_numel_;
  std::copy(in, in + input_numel_, sample_.input.data());
  for (int l = 0; l < model_->num_layers(); ++l) {
    const int64_t stride = out_numel_[static_cast<size_t>(l)];
    const float* src =
        trace_.outputs[static_cast<size_t>(l)].data() + static_cast<size_t>(pos) * stride;
    std::copy(src, src + stride, sample_.outputs[static_cast<size_t>(l)].data());
    const Tensor& aux = trace_.aux[static_cast<size_t>(l)];
    Tensor& sample_aux = sample_.aux[static_cast<size_t>(l)];
    if (aux.empty()) {
      if (!sample_aux.empty()) {
        sample_aux = Tensor();
      }
      continue;
    }
    const int64_t aux_stride = aux.numel() / width_;
    if (sample_aux.numel() != aux_stride) {  // Warm-up / width change only.
      sample_aux.ResizeInPlace(BatchedShape(1, SampleShape(aux.shape())));
    }
    const float* asrc = aux.data() + static_cast<size_t>(pos) * aux_stride;
    std::copy(asrc, asrc + aux_stride, sample_aux.data());
  }
  sample_pos_ = pos;
}

const Tensor& ExecutionPlan::BackwardSample(int pos, int from_layer, const Tensor& seed) {
  if (width_ == 0) {
    throw std::logic_error("ExecutionPlan::BackwardSample: no trace (run ForwardBatch)");
  }
  if (from_layer < 0 || from_layer >= model_->num_layers()) {
    throw std::out_of_range("ExecutionPlan::BackwardSample: bad from_layer");
  }
  if (seed.numel() != out_numel_[static_cast<size_t>(from_layer)]) {
    throw std::invalid_argument("ExecutionPlan::BackwardSample: seed size mismatch");
  }
  Timer timer;
  const Tensor& result = BackwardSampleChain(pos, from_layer, seed);
  if (profiling_) {
    backward_seconds_ += timer.ElapsedSeconds();
  }
  return result;
}

const Tensor& ExecutionPlan::BackwardSampleChain(int pos, int from_layer, const Tensor& seed) {
  EnsureSample(pos);
  const Tensor* grad = &seed;
  for (int l = from_layer; l >= 1; --l) {
    Tensor& gi = bw_[static_cast<size_t>(l)];
    gi.SetBatchDim(1);
    Workspace& ws = bwd_ws_[static_cast<size_t>(l)];
    ws.Rewind();
    model_->layer(l).BackwardBatchInto(sample_.LayerInput(l),
                                       sample_.outputs[static_cast<size_t>(l)], *grad,
                                       sample_.aux[static_cast<size_t>(l)], 1, &gi, &ws,
                                       nullptr);
    grad = &gi;
  }
  bwd_ws_[0].Rewind();
  model_->layer(0).BackwardBatchInto(sample_.input, sample_.outputs[0], *grad,
                                     sample_.aux[0], 1, &bw_input_sample_, &bwd_ws_[0],
                                     nullptr);
  return bw_input_sample_;
}

const BatchTrace& ExecutionPlan::SampleTrace(int pos) {
  if (width_ == 0) {
    throw std::logic_error("ExecutionPlan::SampleTrace: no trace (run ForwardBatch)");
  }
  EnsureSample(pos);
  return sample_;
}

// ---- Model integration -------------------------------------------------------------------

ExecutionPlan Model::Compile(int max_batch) const {
  return ExecutionPlan(*this, max_batch);
}

}  // namespace dx
