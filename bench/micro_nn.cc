// Micro-benchmarks (google-benchmark) for the §8 discussion: the asymmetry
// between prediction/gradient cost and training cost that makes DeepXplore
// cheap relative to training, plus the per-iteration cost of the joint
// optimization on each domain's models.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/constraints/constraint.h"
#include "src/models/trainer.h"
#include "src/util/rng.h"

namespace dx {

Model& CachedModel(const std::string& name) {
  static std::map<std::string, Model>* cache = new std::map<std::string, Model>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    it = cache->emplace(name, ModelZoo::Trained(name)).first;
  }
  return it->second;
}

const Tensor& SampleInput(const std::string& domain) {
  return ModelZoo::TestSet(domain).inputs[0];
}

void BM_Forward(benchmark::State& state, const std::string& name, const std::string& domain) {
  Model& model = CachedModel(name);
  const Tensor& x = SampleInput(domain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(x).Output());
  }
}

void BM_InputGradient(benchmark::State& state, const std::string& name,
                      const std::string& domain) {
  Model& model = CachedModel(name);
  const Tensor& x = SampleInput(domain);
  for (auto _ : state) {
    const ForwardTrace trace = model.Forward(x);
    Tensor seed(model.output_shape());
    seed[0] = 1.0f;
    benchmark::DoNotOptimize(model.BackwardInput(trace, model.num_layers() - 1, seed));
  }
}

void BM_TrainingStep(benchmark::State& state, const std::string& name,
                     const std::string& domain) {
  // One example of forward + parameter backward — the unit of training cost.
  Model model = ModelZoo::Build(name, 1);
  const Dataset& train = ModelZoo::TrainSet(domain);
  Trainer::CalibrateNormLayers(&model, train, 8);
  const Tensor& x = train.inputs[0];
  std::vector<Tensor> grads = model.InitParamGrads();
  for (auto _ : state) {
    const ForwardTrace trace = model.Forward(x);
    Tensor seed(model.output_shape());
    seed[0] = 1.0f;
    benchmark::DoNotOptimize(
        model.BackwardParams(trace, model.num_layers() - 1, seed, &grads));
  }
}

// One seed through the engine loop with a one-iteration budget: the
// consensus forward, one joint-objective gradient, the constrained step, and
// the forward that checks for a difference.
void BM_JointOptimizationIteration(benchmark::State& state, const std::string& domain) {
  static std::map<std::string, std::vector<Model>>* zoo =
      new std::map<std::string, std::vector<Model>>();
  if (zoo->find(domain) == zoo->end()) {
    zoo->emplace(domain, ModelZoo::TrainedDomain(domain));
  }
  std::vector<Model>& models = zoo->at(domain);
  const auto constraint = bench::DefaultConstraint(domain);
  EngineConfig config = bench::DefaultConfig(domain);
  config.max_iterations_per_seed = 1;
  Session session(bench::Pointers(models), constraint.get(), bench::PaperConfig(config));
  const std::vector<Tensor> seed = {SampleInput(domain)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Run(seed, RunOptions{}));
  }
}

}  // namespace dx

int main(int argc, char** argv) {
  const std::pair<const char*, const char*> models[] = {
      {"MNI_C3", "mnist"}, {"IMG_C1", "imagenet"}, {"DRV_C1", "driving"},
      {"PDF_C2", "pdf"},   {"APP_C1", "drebin"}};
  for (const auto& [name_cstr, domain] : models) {
    const std::string name(name_cstr);
    const std::string d = domain;
    benchmark::RegisterBenchmark(
        ("Forward/" + name).c_str(),
        [name, d](benchmark::State& state) { dx::BM_Forward(state, name, d); });
    benchmark::RegisterBenchmark(
        ("InputGradient/" + name).c_str(),
        [name, d](benchmark::State& state) { dx::BM_InputGradient(state, name, d); });
    benchmark::RegisterBenchmark(
        ("TrainingStep/" + name).c_str(),
        [name, d](benchmark::State& state) { dx::BM_TrainingStep(state, name, d); });
  }
  for (const auto& [name_cstr, domain] : models) {
    const std::string d = domain;
    benchmark::RegisterBenchmark(
        ("JointOptIteration/" + dx::DomainName(d)).c_str(),
        [d](benchmark::State& state) { dx::BM_JointOptimizationIteration(state, d); });
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
