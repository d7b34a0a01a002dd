// Driving scenario (the paper's Figure 1): three DAVE-style self-driving
// models cross-reference each other. DeepXplore perturbs road scenes with an
// occlusion rectangle until the steering decisions disagree — the kind of
// corner case that crashes a car into a guardrail.
//
//   $ ./driving_crossref [num_cases]
//
// Generated scene pairs are written as PPM images into ./example_artifacts.
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "src/constraints/image_constraints.h"
#include "src/core/session.h"
#include "src/data/road.h"
#include "src/models/zoo.h"
#include "src/util/image_io.h"

namespace {

const char* Direction(float angle) {
  if (angle < -0.05f) return "left";
  if (angle > 0.05f) return "right";
  return "straight";
}

void SavePpm(const std::string& path, const dx::Tensor& img) {
  const int h = img.dim(1);
  const int w = img.dim(2);
  std::vector<float> hwc(static_cast<size_t>(h) * w * 3);
  for (int c = 0; c < 3; ++c) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        hwc[(static_cast<size_t>(y) * w + x) * 3 + c] =
            img[(static_cast<int64_t>(c) * h + y) * w + x];
      }
    }
  }
  dx::WriteImage(path, hwc, h, w, 3);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dx;
  const int wanted = argc > 1 ? std::atoi(argv[1]) : 2;

  std::vector<Model> models = ModelZoo::TrainedDomain("driving");
  std::vector<Model*> ptrs;
  for (Model& m : models) {
    ptrs.push_back(&m);
  }

  // An attacker-style occlusion: a 10x10 patch anywhere on the camera image.
  OcclusionConstraint constraint(10, 10);
  SessionConfig config;
  config.engine.step = 25.0f / 255.0f;
  config.engine.steering_eps = kSteeringDisagreement;
  config.engine.max_iterations_per_seed = 150;
  // One executor chunk per sync batch, so the run stops soon after the
  // wanted number of cases.
  config.sync_interval = config.batch_size;
  Session session(ptrs, &constraint, config);

  std::filesystem::create_directories("example_artifacts");
  const Dataset& test = ModelZoo::TestSet("driving");
  RunOptions options;
  options.max_tests = wanted;
  int found = 0;
  for (const GeneratedTest& result : session.Run(test.inputs, options).tests) {
    ++found;
    const int i = result.seed_index;
    const Tensor& seed = test.inputs[static_cast<size_t>(i)];
    std::cout << "case " << found << " (seed #" << i << ", ground-truth steering "
              << test.Target(i) << "):\n";
    const std::vector<float> seed_angles = session.Predict({&seed})[0].outputs;
    for (size_t k = 0; k < models.size(); ++k) {
      std::cout << "  " << models[k].name() << ": " << Direction(seed_angles[k]) << " ("
                << seed_angles[k] << ")  ->  "
                << Direction(result.outputs[k]) << " (" << result.outputs[k] << ")"
                << (static_cast<int>(k) == result.deviating_model ? "   <-- deviates" : "")
                << "\n";
    }
    const std::string base = "example_artifacts/driving_case" + std::to_string(found);
    SavePpm(base + "_seed.ppm", seed);
    SavePpm(base + "_occluded.ppm", result.input);
    std::cout << "  wrote " << base << "_{seed,occluded}.ppm\n";
  }
  if (found == 0) {
    std::cerr << "no steering disagreement found\n";
    return 1;
  }
  return 0;
}
