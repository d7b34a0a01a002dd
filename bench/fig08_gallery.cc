// Figure 8: gallery of difference-inducing inputs under the three image
// constraints (lighting / single occlusion / multiple tiny black rects) for
// the MNIST, ImageNet, and Driving stand-ins.
//
// Seed and generated images are written to the artifact directory as
// PGM/PPM; MNIST pairs are additionally rendered as ASCII art. Captions use
// the paper's "all:<consensus> -> <model>:<deviation>" format.
#include <iostream>
#include <memory>
#include <sstream>

#include "bench/bench_common.h"
#include "src/constraints/image_constraints.h"
#include "src/data/tiny_images.h"
#include "src/util/image_io.h"

namespace dx {
namespace {

struct ConstraintCase {
  std::string label;
  std::unique_ptr<Constraint> constraint;
};

std::vector<ConstraintCase> ConstraintsFor(const std::string& domain) {
  std::vector<ConstraintCase> cases;
  cases.push_back({"light", std::make_unique<LightingConstraint>()});
  const int occ = domain == "mnist" ? 8 : 10;
  cases.push_back({"occl", std::make_unique<OcclusionConstraint>(occ, occ)});
  cases.push_back({"blackout", std::make_unique<BlackRectsConstraint>(6, 3)});
  return cases;
}

std::string LabelString(const std::string& domain, const std::vector<int>& labels,
                        const std::vector<float>& outputs) {
  std::ostringstream out;
  if (domain == "driving") {
    for (size_t k = 0; k < outputs.size(); ++k) {
      out << (k > 0 ? " / " : "")
          << (outputs[k] < -0.05f ? "left" : (outputs[k] > 0.05f ? "right" : "straight"))
          << "(" << outputs[k] << ")";
    }
    return out.str();
  }
  for (size_t k = 0; k < labels.size(); ++k) {
    out << (k > 0 ? " / " : "");
    if (domain == "imagenet") {
      out << TinyImageClassName(labels[k]);
    } else {
      out << labels[k];
    }
  }
  return out.str();
}

void SaveImage(const std::string& path, const Tensor& img) {
  const int channels = img.dim(0);
  const int h = img.dim(1);
  const int w = img.dim(2);
  // CHW -> HWC for the image writer.
  std::vector<float> hwc(static_cast<size_t>(h) * w * channels);
  for (int c = 0; c < channels; ++c) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        hwc[(static_cast<size_t>(y) * w + x) * channels + c] =
            img[(static_cast<int64_t>(c) * h + y) * w + x];
      }
    }
  }
  WriteImage(path, hwc, h, w, channels);
}

int Run(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Figure 8", "difference-inducing input gallery per constraint", args);
  const std::string dir = bench::ArtifactDir();
  int saved = 0;

  for (const std::string domain : {"mnist", "imagenet", "driving"}) {
    std::vector<Model> models = ModelZoo::TrainedDomain(domain);
    const auto names = DomainModelNames(domain);
    const std::vector<Tensor> pool = bench::SeedPool(domain, args.seeds);
    for (auto& [label, constraint] : ConstraintsFor(domain)) {
      EngineConfig config = bench::DefaultConfig(domain);
      if (label != "light") {
        config.step = 25.0f / 255.0f;  // Occlusion edits need larger local steps.
        config.max_iterations_per_seed = 150;
      }
      config.rng_seed = 904;
      Session session(bench::Pointers(models), constraint.get(), bench::PaperConfig(config));
      RunOptions opts;
      opts.max_tests = 1;
      const RunStats stats = session.Run(pool, opts);
      std::cout << "--- " << DomainName(domain) << " / " << label << " ---\n";
      if (stats.tests.empty()) {
        std::cout << "no difference found within budget (increase --seeds)\n";
        continue;
      }
      const GeneratedTest& test = stats.tests.front();
      const Tensor& seed = pool[static_cast<size_t>(test.seed_index)];
      const std::string base =
          dir + "/fig08_" + DomainName(domain) + "_" + label;
      SaveImage(base + "_seed" + (domain == "mnist" ? ".pgm" : ".ppm"), seed);
      SaveImage(base + "_diff" + (domain == "mnist" ? ".pgm" : ".ppm"), test.input);
      saved += 2;
      const Prediction at_seed = session.Predict({&seed})[0];
      std::cout << "seed: all -> " << LabelString(domain, at_seed.labels, at_seed.outputs)
                << "\n"
                << "diff: " << LabelString(domain, test.labels, test.outputs) << "  ("
                << names[static_cast<size_t>(test.deviating_model)] << " deviates, "
                << test.iterations << " iterations)\n"
                << "saved " << base << "_{seed,diff}\n";
      if (domain == "mnist") {
        std::cout << "seed image:\n"
                  << AsciiArt(seed.values(), 28, 28, 1) << "generated image:\n"
                  << AsciiArt(test.input.values(), 28, 28, 1);
      }
    }
  }
  std::cout << "wrote " << saved << " images to " << dir << "/\n";
  return saved > 0 ? 0 : 1;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
