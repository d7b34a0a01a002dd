#include "src/models/trainer.h"

#include <cmath>
#include <numeric>

#include "src/nn/batchnorm.h"
#include "src/nn/execution_plan.h"
#include "src/nn/loss.h"
#include "src/nn/optimizer.h"
#include "src/tensor/ops.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace dx {
namespace {

Tensor TargetTensor(const Dataset& data, int i, const Shape& output_shape) {
  if (data.regression()) {
    Tensor t(output_shape);
    t[0] = data.Target(i);
    return t;
  }
  return OneHot(data.Label(i), output_shape[0]);
}

}  // namespace

void Trainer::CalibrateNormLayers(Model* model, const Dataset& data, int max_samples) {
  const int n = std::min(max_samples, data.size());
  if (n == 0) {
    return;
  }
  for (int l = 0; l < model->num_layers(); ++l) {
    auto* bn = dynamic_cast<BatchNorm*>(&model->layer(l));
    if (bn == nullptr) {
      continue;
    }
    const int features = bn->num_features();
    std::vector<double> sum(static_cast<size_t>(features), 0.0);
    std::vector<double> sum_sq(static_cast<size_t>(features), 0.0);
    int64_t count_per_feature = 0;
    for (int i = 0; i < n; ++i) {
      const ForwardTrace trace = model->Forward(data.inputs[static_cast<size_t>(i)]);
      const Tensor& input = trace.LayerInput(l);
      const int64_t plane = input.numel() / features;
      count_per_feature += plane;
      for (int c = 0; c < features; ++c) {
        const float* row = input.data() + static_cast<size_t>(c) * plane;
        for (int64_t k = 0; k < plane; ++k) {
          sum[static_cast<size_t>(c)] += row[k];
          sum_sq[static_cast<size_t>(c)] += static_cast<double>(row[k]) * row[k];
        }
      }
    }
    std::vector<float> mean(static_cast<size_t>(features));
    std::vector<float> variance(static_cast<size_t>(features));
    for (int c = 0; c < features; ++c) {
      const double m = sum[static_cast<size_t>(c)] / static_cast<double>(count_per_feature);
      const double v =
          sum_sq[static_cast<size_t>(c)] / static_cast<double>(count_per_feature) - m * m;
      mean[static_cast<size_t>(c)] = static_cast<float>(m);
      variance[static_cast<size_t>(c)] = static_cast<float>(std::max(v, 1e-6));
    }
    bn->SetStatistics(mean, variance);
  }
}

void Trainer::Fit(Model* model, const Dataset& train, const TrainConfig& config) {
  train.CheckConsistency();
  CalibrateNormLayers(model, train);

  const bool classification = !train.regression();
  SoftmaxCrossEntropy ce;
  MeanSquaredError mse;
  const Loss& loss = classification ? static_cast<const Loss&>(ce)
                                    : static_cast<const Loss&>(mse);

  Rng rng(config.seed);
  Adam opt(config.learning_rate);
  auto params = model->MutableParams();

  std::vector<int> order(static_cast<size_t>(train.size()));
  std::iota(order.begin(), order.end(), 0);

  // One gradient accumulator for the whole fit, zeroed in place per
  // minibatch — re-allocating every model-sized tensor each minibatch was
  // pure churn.
  std::vector<Tensor> grads = model->InitParamGrads();

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.shuffle) {
      rng.Shuffle(order);
    }
    double epoch_loss = 0.0;
    for (int start = 0; start < train.size(); start += config.batch_size) {
      const int end = std::min(train.size(), start + config.batch_size);
      for (Tensor& g : grads) {
        g.Fill(0.0f);
      }
      for (int bi = start; bi < end; ++bi) {
        const int i = order[static_cast<size_t>(bi)];
        const ForwardTrace trace =
            model->Forward(train.inputs[static_cast<size_t>(i)], /*training=*/true, &rng);
        const Tensor target = TargetTensor(train, i, model->output_shape());
        LossResult r = loss.Compute(*model, trace, target);
        epoch_loss += r.loss;
        model->BackwardParams(trace, r.seed_layer, std::move(r.grad), &grads);
      }
      const float scale = 1.0f / static_cast<float>(end - start);
      for (Tensor& g : grads) {
        g.Scale(scale);
      }
      opt.Step(params, grads);
    }
    if (config.verbose) {
      DX_LOG(Info) << model->name() << " epoch " << (epoch + 1) << "/" << config.epochs
                   << " avg loss " << epoch_loss / train.size();
    }
  }
}

float Trainer::Accuracy(const Model& model, const Dataset& data) {
  if (data.regression()) {
    throw std::invalid_argument("Trainer::Accuracy on regression dataset");
  }
  int correct = 0;
  ExecutionPlan plan = model.Compile(ChunkCapacity(data.inputs.size(), kInferenceChunk));
  plan.ForwardChunks(SamplePointers(data.inputs), [&](size_t begin, const BatchTrace& trace) {
    for (int b = 0; b < trace.batch; ++b) {
      correct += trace.SampleLabel(b) == data.Label(static_cast<int>(begin) + b) ? 1 : 0;
    }
  });
  return data.size() > 0 ? static_cast<float>(correct) / static_cast<float>(data.size())
                         : 0.0f;
}

float Trainer::MseOf(const Model& model, const Dataset& data) {
  double sum = 0.0;
  ExecutionPlan plan = model.Compile(ChunkCapacity(data.inputs.size(), kInferenceChunk));
  plan.ForwardChunks(SamplePointers(data.inputs), [&](size_t begin, const BatchTrace& trace) {
    for (int b = 0; b < trace.batch; ++b) {
      const float diff = trace.SampleScalar(b) - data.Target(static_cast<int>(begin) + b);
      sum += static_cast<double>(diff) * diff;
    }
  });
  return data.size() > 0 ? static_cast<float>(sum / data.size()) : 0.0f;
}

float Trainer::PaperAccuracy(const Model& model, const Dataset& data) {
  return data.regression() ? 1.0f - MseOf(model, data) : Accuracy(model, data);
}

}  // namespace dx
