// The model zoo: trained models and shared datasets for every registered
// domain (src/core/domain.h), with a per-machine disk cache.
//
// The five paper domains of Table 1 are built-in DomainSpecs (registered by
// this translation unit):
//
//   mnist      MNI_C1..C3  LeNet-1 / LeNet-4 / LeNet-5
//   imagenet   IMG_C1..C3  MiniVGG16 / MiniVGG19 / MiniResNet (scaled-down)
//   driving    DRV_C1..C3  DAVE-orig / DAVE-norminit / DAVE-dropout
//   pdf        PDF_C1..C3  <200,200> / <200,200,200> / <200,200,200,200>
//   drebin     APP_C1..C3  <200,200> / <50,50> / <200,10>
//
// Out-of-paper domains (src/domains/) and out-of-tree RegisterDomain calls
// appear here automatically: ModelZoo is a thin cache keyed by DomainSpec —
// it never enumerates domains itself.
//
// Trained models are cached on disk (see util/cache.h) keyed by architecture,
// dataset configuration, and seed, so the zoo trains once per machine.
// DEEPXPLORE_FAST=1 shrinks dataset sizes for quick test runs.
#ifndef DX_SRC_MODELS_ZOO_H_
#define DX_SRC_MODELS_ZOO_H_

#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/nn/model.h"

namespace dx {

// Registry keys of the five paper domains, Table 1 order: "mnist",
// "imagenet", "driving", "pdf", "drebin" (the registry may hold more —
// DomainKeys()).
const std::vector<std::string>& PaperDomainKeys();

// Paper-style dataset label of a registered domain: "MNIST", "ImageNet",
// "Driving", "VirusTotal", "Drebin", ...
const std::string& DomainName(const std::string& domain_key);

struct ModelInfo {
  std::string name;        // e.g. "MNI_C1"
  std::string domain;      // registry key, e.g. "mnist"
  std::string arch;        // e.g. "LeNet-1"
  std::string paper_arch;  // what the paper used, e.g. "LeNet-1, LeCun et al."
};

// Every registered domain's zoo entries (registry key order; the paper's 15
// models plus any registered out-of-paper domains).
std::vector<ModelInfo> ZooModels();
// The model names of one domain.
std::vector<std::string> DomainModelNames(const std::string& domain_key);
// Info lookup across all registered domains; throws std::out_of_range for
// unknown names.
ModelInfo FindModel(const std::string& name);

class ModelZoo {
 public:
  // Deterministic shared datasets (generated once per process per domain).
  static const Dataset& TrainSet(const std::string& domain_key);
  static const Dataset& TestSet(const std::string& domain_key);

  // Freshly initialized (untrained) model by zoo name.
  static Model Build(const std::string& name, uint64_t seed);

  // Trained model, from the disk cache when available.
  static Model Trained(const std::string& name);

  // All trained models of a domain.
  static std::vector<Model> TrainedDomain(const std::string& domain_key);

  // LeNet-1 with custom conv filter counts / training-set size / epochs —
  // used by the Table 12 model-similarity experiment.
  static Model BuildCustomLenet1(int conv1_filters, int conv2_filters, uint64_t seed);
};

}  // namespace dx

#endif  // DX_SRC_MODELS_ZOO_H_
