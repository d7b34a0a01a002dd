#include "src/analysis/retraining.h"

#include <map>
#include <stdexcept>

#include "src/models/trainer.h"
#include "src/nn/execution_plan.h"
#include "src/tensor/ops.h"

namespace dx {

std::vector<int> MajorityVoteLabels(const std::vector<Model*>& voters,
                                    const std::vector<Tensor>& inputs) {
  if (voters.empty()) {
    throw std::invalid_argument("MajorityVoteLabels: no voters");
  }
  const std::vector<const Tensor*> pointers = SamplePointers(inputs);
  std::vector<std::map<int, int>> votes(inputs.size());
  for (const Model* m : voters) {
    ExecutionPlan plan = m->Compile(ChunkCapacity(inputs.size(), kInferenceChunk));
    plan.ForwardChunks(pointers, [&](size_t begin, const BatchTrace& trace) {
      for (int b = 0; b < trace.batch; ++b) {
        ++votes[begin + static_cast<size_t>(b)][trace.SampleLabel(b)];
      }
    });
  }
  std::vector<int> labels;
  labels.reserve(inputs.size());
  for (const std::map<int, int>& tally : votes) {
    int best_label = tally.begin()->first;
    int best_count = 0;
    for (const auto& [label, count] : tally) {
      if (count > best_count) {
        best_count = count;
        best_label = label;
      }
    }
    labels.push_back(best_label);
  }
  return labels;
}

Dataset AugmentWithVotedLabels(const Dataset& train, const std::vector<Tensor>& extra_inputs,
                               const std::vector<Model*>& voters) {
  if (train.regression()) {
    throw std::invalid_argument("AugmentWithVotedLabels: classification only");
  }
  Dataset augmented = train;
  augmented.name = train.name + "/augmented";
  const std::vector<int> labels = MajorityVoteLabels(voters, extra_inputs);
  for (size_t i = 0; i < extra_inputs.size(); ++i) {
    augmented.Add(extra_inputs[i], static_cast<float>(labels[i]));
  }
  return augmented;
}

std::vector<float> RetrainAccuracyCurve(Model* model, const Dataset& augmented,
                                        const Dataset& test, int epochs, uint64_t seed,
                                        float learning_rate) {
  std::vector<float> curve;
  curve.push_back(Trainer::Accuracy(*model, test));
  for (int e = 0; e < epochs; ++e) {
    TrainConfig cfg;
    cfg.epochs = 1;
    cfg.learning_rate = learning_rate;
    cfg.seed = seed + static_cast<uint64_t>(e);
    Trainer::Fit(model, augmented, cfg);
    curve.push_back(Trainer::Accuracy(*model, test));
  }
  return curve;
}

}  // namespace dx
