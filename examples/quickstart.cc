// Quickstart: the smallest end-to-end test-generation session.
//
// Looks up the "mnist" domain in the DomainSpec registry (every domain —
// dataset, model trio, constraints, Table-2 defaults — is a string-keyed
// plug-in; `dxplore --list-domains` enumerates them), loads/trains its three
// models, wires a Session from named plug-ins (coverage metric, objective,
// seed scheduler), runs the joint optimization under the domain's default
// constraint on the batched executor, and prints the first
// difference-inducing input it finds, with coverage statistics.
//
//   $ ./quickstart
//
// (First run trains the three models and caches them under
//  /tmp/deepxplore_model_cache; subsequent runs start instantly.)
#include <iostream>

#include "src/core/domain.h"
#include "src/core/session.h"
#include "src/models/zoo.h"
#include "src/util/image_io.h"

int main() {
  using namespace dx;

  // 1. The domain bundle: swap "mnist" for any registered key ("speech",
  //    "tabular", ...) and the rest of the program works unchanged.
  const DomainSpec& domain = GetDomain("mnist");

  // 2. Three independently trained DNNs for the same task (the oracles).
  std::vector<Model> models = ModelZoo::TrainedDomain(domain.key);
  std::vector<Model*> ptrs;
  for (Model& m : models) {
    ptrs.push_back(&m);
  }
  std::cout << models[0].Summary();

  // 3. The domain's default constraint — for MNIST: only brighten/darken the
  //    whole image. Named variants ("occl", "blackout", ...) come from the
  //    same spec: MakeDomainConstraint(domain, "occl").
  const auto constraint = MakeDomainConstraint(domain, "default");

  // 4. The session: the domain's Table-2 hyperparameters plus the pluggable
  //    components. Swap config.metric to "kmultisection" or "topk", or
  //    config.workers to > 1, without touching the rest of the program.
  SessionConfig config;
  config.engine = domain.engine_defaults;   // λ1, λ2, s from Table 2.
  config.engine.max_iterations_per_seed = 150;
  config.metric = "neuron";        // or "kmultisection", "topk" (--list-metrics)
  config.objective = "joint";      // or "differential", "fgsm", "random"
  config.scheduler = "roundrobin";
  // The executor ascends 8 seeds in lockstep: every iteration is one batched
  // forward pass per model, shared by the objective gradient, the difference
  // check, and the coverage update. Results are bit-identical for any value.
  config.batch_size = 8;
  // Seeds scheduled per sync point. The whole sync batch runs before Run
  // checks max_tests, so keep it small when stopping at the first hit.
  config.sync_interval = 8;
  Session session(ptrs, constraint.get(), config);

  // 5. Seed it with unlabeled test inputs and collect difference-inducing
  //    inputs — no manual labels anywhere. Run() drives the scheduler's seed
  //    stream through the batched executor until a bound is hit.
  const Dataset& test = ModelZoo::TestSet(domain.key);
  RunOptions options;
  options.max_tests = 1;  // Stop at the first difference-inducing input.
  const RunStats stats = session.Run(test.inputs, options);
  if (stats.tests.empty()) {
    std::cerr << "no difference-inducing input found\n";
    return 1;
  }

  const GeneratedTest& found = stats.tests.front();
  std::cout << "\nDifference found from seed #" << found.seed_index << " after "
            << found.iterations << " gradient steps (" << stats.seeds_tried
            << " seeds tried, " << stats.forward_passes << " model forward passes):\n";
  for (size_t k = 0; k < models.size(); ++k) {
    std::cout << "  " << models[k].name() << " predicts "
              << found.labels[static_cast<size_t>(k)]
              << (static_cast<int>(k) == found.deviating_model ? "   <-- deviates\n"
                                                               : "\n");
  }
  std::cout << "\nseed image:\n"
            << AsciiArt(test.inputs[static_cast<size_t>(found.seed_index)].values(), 28, 28,
                        1)
            << "\ngenerated image (same digit, different lighting):\n"
            << AsciiArt(found.input.values(), 28, 28, 1) << "\nmean "
            << session.metric(0).name()
            << " coverage after this test: " << session.MeanCoverage() << "\n";
  return 0;
}
