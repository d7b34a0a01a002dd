#include "src/models/zoo.h"

#include <list>
#include <map>
#include <mutex>
#include <stdexcept>

#include "src/constraints/image_constraints.h"
#include "src/constraints/malware_constraints.h"
#include "src/core/domain.h"
#include "src/data/drebin.h"
#include "src/data/pdf.h"
#include "src/data/road.h"
#include "src/data/synthetic_digits.h"
#include "src/data/tiny_images.h"
#include "src/models/trainer.h"
#include "src/nn/batchnorm.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/dropout.h"
#include "src/nn/flatten.h"
#include "src/nn/pool2d.h"
#include "src/nn/residual.h"
#include "src/nn/softmax_layer.h"
#include "src/util/cache.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace dx {
namespace {

// Bump to invalidate stale cache entries when architectures change.
constexpr const char* kZooVersion = "v5";

// ---- Architecture builders ---------------------------------------------------------------

Model BuildLenet(const std::string& name, int variant, uint64_t seed) {
  Rng rng(seed);
  Model m(name, {1, kDigitImageSize, kDigitImageSize});
  if (variant == 1) {
    m.Emplace<Conv2D>(1, 4, 5, 5, 1, 0, Activation::kTanh).InitParams(rng);
    m.Emplace<Pool2D>(PoolMode::kAvg, 2);
    m.Emplace<Conv2D>(4, 12, 5, 5, 1, 0, Activation::kTanh).InitParams(rng);
    m.Emplace<Pool2D>(PoolMode::kAvg, 2);
    m.Emplace<Flatten>();
    m.Emplace<Dense>(12 * 4 * 4, 10).InitParams(rng);
  } else {
    m.Emplace<Conv2D>(1, 6, 5, 5, 1, 0, Activation::kRelu).InitParams(rng);
    m.Emplace<Pool2D>(PoolMode::kMax, 2);
    m.Emplace<Conv2D>(6, 16, 5, 5, 1, 0, Activation::kRelu).InitParams(rng);
    m.Emplace<Pool2D>(PoolMode::kMax, 2);
    m.Emplace<Flatten>();
    m.Emplace<Dense>(16 * 4 * 4, 120, Activation::kRelu).InitParams(rng);
    if (variant == 5) {
      m.Emplace<Dense>(120, 84, Activation::kRelu).InitParams(rng);
      m.Emplace<Dense>(84, 10).InitParams(rng);
    } else {
      m.Emplace<Dense>(120, 10).InitParams(rng);
    }
  }
  m.Emplace<SoftmaxLayer>();
  return m;
}

Model BuildMiniVgg(const std::string& name, int convs_in_last_block, uint64_t seed) {
  Rng rng(seed);
  // He-normal init: deep ReLU stacks are collapse-prone under Glorot uniform
  // at this width (4-16 channels).
  const WeightInit init = WeightInit::kHeNormal;
  Model m(name, {3, kTinyImageSize, kTinyImageSize});
  // Block 1 (32x32, 4 channels).
  m.Emplace<Conv2D>(3, 4, 3, 3, 1, 1, Activation::kRelu).InitParams(rng, init);
  m.Emplace<Conv2D>(4, 4, 3, 3, 1, 1, Activation::kRelu).InitParams(rng, init);
  m.Emplace<Pool2D>(PoolMode::kMax, 2);
  // Block 2 (16x16, 8 channels).
  m.Emplace<Conv2D>(4, 8, 3, 3, 1, 1, Activation::kRelu).InitParams(rng, init);
  m.Emplace<Conv2D>(8, 8, 3, 3, 1, 1, Activation::kRelu).InitParams(rng, init);
  m.Emplace<Pool2D>(PoolMode::kMax, 2);
  // Block 3 (8x8, 16 channels); VGG19 variant is one conv deeper.
  m.Emplace<Conv2D>(8, 16, 3, 3, 1, 1, Activation::kRelu).InitParams(rng, init);
  for (int i = 1; i < convs_in_last_block; ++i) {
    m.Emplace<Conv2D>(16, 16, 3, 3, 1, 1, Activation::kRelu).InitParams(rng, init);
  }
  m.Emplace<Pool2D>(PoolMode::kMax, 2);
  // Head (4x4x16 = 256).
  m.Emplace<Flatten>();
  m.Emplace<Dense>(256, 64, Activation::kRelu).InitParams(rng, init);
  m.Emplace<Dense>(64, kTinyImageClasses).InitParams(rng, init);
  m.Emplace<SoftmaxLayer>();
  return m;
}

Model BuildMiniResnet(const std::string& name, uint64_t seed) {
  Rng rng(seed);
  Model m(name, {3, kTinyImageSize, kTinyImageSize});
  m.Emplace<Conv2D>(3, 8, 3, 3, 1, 1, Activation::kRelu).InitParams(rng);
  m.Emplace<ResidualBlock>(8, 16, 2).InitParams(rng);   // 16x16
  m.Emplace<ResidualBlock>(16, 16, 1).InitParams(rng);
  m.Emplace<ResidualBlock>(16, 32, 2).InitParams(rng);  // 8x8
  m.Emplace<ResidualBlock>(32, 32, 1).InitParams(rng);
  m.Emplace<Pool2D>(PoolMode::kAvg, 8);  // Global average pool -> 32x1x1.
  m.Emplace<Flatten>();
  m.Emplace<Dense>(32, kTinyImageClasses).InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

Model BuildDave(const std::string& name, int variant, uint64_t seed) {
  Rng rng(seed);
  const WeightInit init =
      variant == 2 ? WeightInit::kNormalized : WeightInit::kGlorotUniform;
  Model m(name, {3, kRoadImageHeight, kRoadImageWidth});
  if (variant == 1) {
    // DAVE-orig fully replicates the Nvidia architecture, including the
    // leading normalization layer.
    m.Emplace<BatchNorm>(3);
  }
  m.Emplace<Conv2D>(3, 12, 5, 5, 2, 0, Activation::kRelu).InitParams(rng, init);
  m.Emplace<Conv2D>(12, 16, 5, 5, 2, 0, Activation::kRelu).InitParams(rng, init);
  if (variant != 3) {
    // DAVE-dropout cuts down the convolutional stack.
    m.Emplace<Conv2D>(16, 20, 3, 3, 1, 0, Activation::kRelu).InitParams(rng, init);
    m.Emplace<Flatten>();
    m.Emplace<Dense>(20 * 3 * 11, 64, Activation::kRelu).InitParams(rng, init);
  } else {
    m.Emplace<Flatten>();
    m.Emplace<Dense>(16 * 5 * 13, 64, Activation::kRelu).InitParams(rng, init);
    m.Emplace<Dropout>(0.25f);
  }
  m.Emplace<Dense>(64, 16, Activation::kRelu).InitParams(rng, init);
  if (variant == 3) {
    m.Emplace<Dropout>(0.25f);
  }
  m.Emplace<Dense>(16, 1, Activation::kTanh).InitParams(rng, init);
  return m;
}

Model BuildMlp(const std::string& name, int input_dim, const std::vector<int>& hidden,
               int classes, uint64_t seed) {
  Rng rng(seed);
  Model m(name, {input_dim});
  int in = input_dim;
  for (const int h : hidden) {
    m.Emplace<Dense>(in, h, Activation::kRelu).InitParams(rng);
    in = h;
  }
  m.Emplace<Dense>(in, classes).InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

uint64_t SeedFor(const std::string& name) { return Fnv1a64("seed:" + name); }

// §6.2's image constraint set, shared by the three vision domains.
std::vector<DomainConstraintSpec> VisionConstraints() {
  return {
      {"light", [] { return std::make_unique<LightingConstraint>(); }},
      {"occl", [] { return std::make_unique<OcclusionConstraint>(10, 10); }},
      {"blackout", [] { return std::make_unique<BlackRectsConstraint>(6, 3); }},
      {"none", [] { return std::make_unique<UnconstrainedImage>(); }},
  };
}

// Looks up (domain spec, model spec) for a zoo model name.
struct ModelLookup {
  std::shared_ptr<const DomainSpec> domain;
  const DomainModelSpec* model = nullptr;
};

ModelLookup FindModelSpec(const std::string& name) {
  for (const std::string& key : DomainKeys()) {
    std::shared_ptr<const DomainSpec> spec = FindDomain(key);
    for (const DomainModelSpec& m : spec->models) {
      if (m.name == name) {
        return {std::move(spec), &m};
      }
    }
  }
  throw std::out_of_range("unknown zoo model: " + name);
}

}  // namespace

namespace domains {

// The five paper domains of Table 1/2 as built-in DomainSpecs (anchored from
// src/core/domain.cc's lazy initializer).
void RegisterPaperDomains() {
  {
    DomainSpec spec;
    spec.key = "mnist";
    spec.display_name = "MNIST";
    spec.description = "handwritten digits (synthetic substitute); LeNet family";
    spec.make_dataset = [](int n, uint64_t seed) { return MakeSyntheticDigits(n, seed); };
    spec.training = {1500, 500, 8, 3e-3f, 101, /*fast_train=*/4, /*fast_test=*/4};
    spec.models = {
        {"MNI_C1", "LeNet-1", "LeNet-1, LeCun et al.",
         [](uint64_t s) { return BuildLenet("MNI_C1", 1, s); }},
        {"MNI_C2", "LeNet-4", "LeNet-4, LeCun et al.",
         [](uint64_t s) { return BuildLenet("MNI_C2", 4, s); }},
        {"MNI_C3", "LeNet-5", "LeNet-5, LeCun et al.",
         [](uint64_t s) { return BuildLenet("MNI_C3", 5, s); }},
    };
    spec.constraints = VisionConstraints();
    spec.default_constraint = "light";
    spec.engine_defaults.coverage.scale_per_layer = false;
    spec.engine_defaults.lambda1 = 2.0f;
    spec.engine_defaults.step = 10.0f / 255.0f;
    RegisterDomain(std::move(spec));
  }
  {
    DomainSpec spec;
    spec.key = "imagenet";
    spec.display_name = "ImageNet";
    spec.description = "32x32 texture/shape classes (ImageNet stand-in); VGG/ResNet trio";
    spec.make_dataset = [](int n, uint64_t seed) {
      return MakeSyntheticTinyImages(n, seed);
    };
    // The ImageNet stand-in needs more data per class to train its deeper
    // models even in fast mode, hence the gentler fast-mode train divisor.
    spec.training = {1200, 400, 8, 3e-3f, 202, /*fast_train=*/2, /*fast_test=*/4};
    spec.models = {
        {"IMG_C1", "MiniVGG-16", "VGG-16, Simonyan et al.",
         [](uint64_t s) { return BuildMiniVgg("IMG_C1", 2, s); }},
        // The deeper VGG variant needs a gentler rate to train stably at this
        // width (per-model tuning, as the paper does for its pretrained nets).
        {"IMG_C2", "MiniVGG-19", "VGG-19, Simonyan et al.",
         [](uint64_t s) { return BuildMiniVgg("IMG_C2", 3, s); }, 1.5e-3f},
        {"IMG_C3", "MiniResNet", "ResNet50, He et al.",
         [](uint64_t s) { return BuildMiniResnet("IMG_C3", s); }},
    };
    spec.constraints = VisionConstraints();
    spec.default_constraint = "light";
    spec.engine_defaults.coverage.scale_per_layer = false;
    spec.engine_defaults.lambda1 = 1.0f;
    spec.engine_defaults.step = 10.0f / 255.0f;
    RegisterDomain(std::move(spec));
  }
  {
    DomainSpec spec;
    spec.key = "driving";
    spec.display_name = "Driving";
    spec.description = "dashcam steering regression (Udacity stand-in); DAVE variants";
    spec.make_dataset = [](int n, uint64_t seed) { return MakeSyntheticRoad(n, seed); };
    spec.training = {1500, 400, 5, 3e-3f, 303, /*fast_train=*/4, /*fast_test=*/4};
    spec.models = {
        {"DRV_C1", "Dave-orig", "Dave-orig, Bojarski et al.",
         [](uint64_t s) { return BuildDave("DRV_C1", 1, s); }},
        {"DRV_C2", "Dave-norminit", "Dave-norminit",
         [](uint64_t s) { return BuildDave("DRV_C2", 2, s); }},
        {"DRV_C3", "Dave-dropout", "Dave-dropout",
         [](uint64_t s) { return BuildDave("DRV_C3", 3, s); }},
    };
    spec.constraints = VisionConstraints();
    spec.default_constraint = "light";
    spec.engine_defaults.coverage.scale_per_layer = false;
    spec.engine_defaults.lambda1 = 1.0f;
    spec.engine_defaults.step = 10.0f / 255.0f;
    RegisterDomain(std::move(spec));
  }
  {
    DomainSpec spec;
    spec.key = "pdf";
    spec.display_name = "VirusTotal";
    spec.description = "PDF malware static features (Contagio stand-in); MLP trio";
    spec.make_dataset = [](int n, uint64_t seed) { return MakeSyntheticPdf(n, seed); };
    spec.training = {2500, 800, 8, 1e-3f, 404, /*fast_train=*/4, /*fast_test=*/4};
    spec.models = {
        {"PDF_C1", "<200, 200>", "<200, 200>",
         [](uint64_t s) { return BuildMlp("PDF_C1", kPdfFeatureCount, {200, 200}, 2, s); }},
        {"PDF_C2", "<200, 200, 200>", "<200, 200, 200>",
         [](uint64_t s) {
           return BuildMlp("PDF_C2", kPdfFeatureCount, {200, 200, 200}, 2, s);
         }},
        {"PDF_C3", "<200, 200, 200, 200>", "<200, 200, 200, 200>",
         [](uint64_t s) {
           return BuildMlp("PDF_C3", kPdfFeatureCount, {200, 200, 200, 200}, 2, s);
         }},
    };
    spec.constraints = {
        {"pdf", [] { return std::make_unique<PdfConstraint>(); }},
        {"none", [] { return std::make_unique<UnconstrainedImage>(); }},
    };
    spec.default_constraint = "pdf";
    spec.engine_defaults.coverage.scale_per_layer = false;
    spec.engine_defaults.lambda1 = 2.0f;
    spec.engine_defaults.step = 0.1f;
    RegisterDomain(std::move(spec));
  }
  {
    DomainSpec spec;
    spec.key = "drebin";
    spec.display_name = "Drebin";
    spec.description = "Android-app binary features (Drebin stand-in); MLP trio";
    spec.make_dataset = [](int n, uint64_t seed) { return MakeSyntheticDrebin(n, seed); };
    spec.training = {2500, 800, 8, 1e-3f, 505, /*fast_train=*/4, /*fast_test=*/4};
    spec.models = {
        {"APP_C1", "<200, 200>", "<200, 200>, Grosse et al.",
         [](uint64_t s) {
           return BuildMlp("APP_C1", kDrebinFeatureCount, {200, 200}, 2, s);
         }},
        {"APP_C2", "<50, 50>", "<50, 50>, Grosse et al.",
         [](uint64_t s) { return BuildMlp("APP_C2", kDrebinFeatureCount, {50, 50}, 2, s); }},
        {"APP_C3", "<200, 10>", "<200, 10>, Grosse et al.",
         [](uint64_t s) {
           return BuildMlp("APP_C3", kDrebinFeatureCount, {200, 10}, 2, s);
         }},
    };
    spec.constraints = {
        {"drebin", [] { return std::make_unique<DrebinConstraint>(); }},
        {"none", [] { return std::make_unique<UnconstrainedImage>(); }},
    };
    spec.default_constraint = "drebin";
    spec.engine_defaults.coverage.scale_per_layer = false;
    spec.engine_defaults.lambda1 = 1.0f;
    spec.engine_defaults.lambda2 = 0.5f;
    spec.engine_defaults.step = 1.0f;  // Discrete feature flips (Table 2: s = N/A).
    RegisterDomain(std::move(spec));
  }
}

}  // namespace domains

const std::vector<std::string>& PaperDomainKeys() {
  static const std::vector<std::string> keys = {"mnist", "imagenet", "driving", "pdf",
                                                "drebin"};
  return keys;
}

const std::string& DomainName(const std::string& domain_key) {
  return GetDomain(domain_key).display_name;
}

std::vector<ModelInfo> ZooModels() {
  std::vector<ModelInfo> models;
  for (const std::string& key : DomainKeys()) {
    const DomainSpec& spec = GetDomain(key);
    for (const DomainModelSpec& m : spec.models) {
      models.push_back({m.name, spec.key, m.arch, m.paper_arch});
    }
  }
  return models;
}

std::vector<std::string> DomainModelNames(const std::string& domain_key) {
  std::vector<std::string> names;
  for (const DomainModelSpec& m : GetDomain(domain_key).models) {
    names.push_back(m.name);
  }
  return names;
}

ModelInfo FindModel(const std::string& name) {
  const ModelLookup found = FindModelSpec(name);
  return {found.model->name, found.domain->key, found.model->arch,
          found.model->paper_arch};
}

namespace {

// Per-process dataset cache. Entries remember which spec instance generated
// them: re-registering a domain (RegisterDomain replaces by key, retiring —
// not freeing — the old spec) must not serve the retired spec's data.
struct CachedDataset {
  const DomainSpec* spec = nullptr;
  Dataset data;
};

const Dataset& CachedDomainSet(const std::string& domain_key, uint64_t seed_offset,
                               int DomainTraining::*samples) {
  // A std::list owns the datasets so handed-out references survive a slot
  // being superseded (stale entries are retired in place, never destroyed).
  static std::list<CachedDataset>* entries = new std::list<CachedDataset>();
  static std::map<std::string, CachedDataset*>* cache =
      new std::map<std::string, CachedDataset*>();
  static std::mutex mutex;
  const DomainSpec& spec = GetDomain(domain_key);
  const std::string slot = spec.key + (seed_offset == 0 ? "/train" : "/test");
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache->find(slot);
  if (it != cache->end() && it->second->spec == &spec) {
    return it->second->data;
  }
  const DomainTraining cfg = EffectiveTraining(spec);
  CachedDataset& entry = entries->emplace_back();
  entry.spec = &spec;
  entry.data = spec.make_dataset(cfg.*samples, cfg.data_seed + seed_offset);
  (*cache)[slot] = &entry;
  return entry.data;
}

}  // namespace

const Dataset& ModelZoo::TrainSet(const std::string& domain_key) {
  return CachedDomainSet(domain_key, 0, &DomainTraining::train_samples);
}

const Dataset& ModelZoo::TestSet(const std::string& domain_key) {
  // Disjoint from the train set via a distinct seed stream (data_seed + 1).
  return CachedDomainSet(domain_key, 1, &DomainTraining::test_samples);
}

Model ModelZoo::Build(const std::string& name, uint64_t seed) {
  return FindModelSpec(name).model->build(seed);
}

Model ModelZoo::Trained(const std::string& name) {
  const ModelLookup found = FindModelSpec(name);
  const DomainSpec& spec = *found.domain;
  const DomainTraining cfg = EffectiveTraining(spec);
  const std::string key = std::string("zoo/") + kZooVersion + "/" + name + "/" +
                          std::to_string(cfg.train_samples) + "/" +
                          std::to_string(cfg.epochs) + "/" + std::to_string(cfg.data_seed);
  if (const auto blob = FileCache::Global().Get(key)) {
    return Model::Deserialize(*blob);
  }
  Model model = found.model->build(SeedFor(name));
  TrainConfig train_cfg;
  train_cfg.epochs = cfg.epochs;
  train_cfg.learning_rate = found.model->learning_rate > 0.0f
                                ? found.model->learning_rate
                                : cfg.learning_rate;
  train_cfg.seed = SeedFor(name) ^ 0xabcdef;
  Timer timer;
  Trainer::Fit(&model, TrainSet(spec.key), train_cfg);
  DX_LOG(Info) << "trained " << name << " in " << timer.ElapsedSeconds() << "s, paper-acc "
               << Trainer::PaperAccuracy(model, TestSet(spec.key));
  FileCache::Global().Put(key, model.Serialize());
  return model;
}

std::vector<Model> ModelZoo::TrainedDomain(const std::string& domain_key) {
  std::vector<Model> models;
  for (const DomainModelSpec& m : GetDomain(domain_key).models) {
    models.push_back(Trained(m.name));
  }
  return models;
}

Model ModelZoo::BuildCustomLenet1(int conv1_filters, int conv2_filters, uint64_t seed) {
  Rng rng(seed);
  Model m("lenet1_custom", {1, kDigitImageSize, kDigitImageSize});
  m.Emplace<Conv2D>(1, conv1_filters, 5, 5, 1, 0, Activation::kTanh).InitParams(rng);
  m.Emplace<Pool2D>(PoolMode::kAvg, 2);
  m.Emplace<Conv2D>(conv1_filters, conv2_filters, 5, 5, 1, 0, Activation::kTanh)
      .InitParams(rng);
  m.Emplace<Pool2D>(PoolMode::kAvg, 2);
  m.Emplace<Flatten>();
  m.Emplace<Dense>(conv2_filters * 4 * 4, 10).InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

}  // namespace dx
