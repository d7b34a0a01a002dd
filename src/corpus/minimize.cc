#include "src/corpus/minimize.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/nn/execution_plan.h"
#include "src/tensor/ops.h"

namespace dx {

namespace {

void RevertBlock(Tensor& input, const Tensor& seed, int64_t begin, int64_t end) {
  for (int64_t j = begin; j < end; ++j) {
    input.values()[static_cast<size_t>(j)] = seed[j];
  }
}

int64_t PerturbedValues(const Tensor& input, const Tensor& seed) {
  int64_t count = 0;
  for (int64_t j = 0; j < input.numel(); ++j) {
    if (input[j] != seed[j]) {
      ++count;
    }
  }
  return count;
}

// The pass body: walks each entry back toward its seed, block by block,
// under the two invariants in minimize.h.
PassOutcome MinimizeEntries(Session& session, const Corpus& corpus,
                            const MinimizeOptions& options,
                            std::vector<CoverageFootprint>& footprints) {
  const CorpusMeta& meta = corpus.meta();
  const std::vector<GeneratedTest>& entries = corpus.entries();
  // suffix[i] = merged original footprints of entries i..n-1; suffix[n] is
  // empty. base_i = minimized-prefix ⊕ suffix[i+1] is everything covered
  // around entry i while it is being reduced.
  const size_t n = entries.size();
  std::vector<CoverageFootprint> suffix(n + 1);
  suffix[n] = EmptyFootprint(session);
  for (size_t i = n; i-- > 0;) {
    suffix[i] = CloneFootprint(suffix[i + 1]);
    MergeFootprint(suffix[i], footprints[i]);
  }
  PassOutcome result;
  CoverageFootprint& acc = result.coverage;
  acc = CloneFootprint(suffix[n]);

  std::vector<ExecutionPlan> plans;
  plans.reserve(static_cast<size_t>(session.num_models()));
  for (int k = 0; k < session.num_models(); ++k) {
    plans.push_back(session.model(k).Compile(session.config().batch_size));
  }

  const float eps = session.config().engine.steering_eps;
  std::vector<GeneratedTest>& minimized = result.entries;
  minimized.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const GeneratedTest& entry = entries[i];
    const Tensor& seed = meta.seeds[static_cast<size_t>(entry.seed_index)];
    GeneratedTest out = entry;

    CoverageFootprint base = CloneFootprint(acc);
    MergeFootprint(base, suffix[i + 1]);
    std::vector<int64_t> targets(base.size());
    for (size_t k = 0; k < base.size(); ++k) {
      auto probe = base[k]->Clone();
      probe->Merge(*footprints[i][k]);
      targets[k] = probe->covered_items();
    }
    // The entry's own footprint travels into `acc` unless a revert replaces it.
    CoverageFootprint final_fp = std::move(footprints[i]);

    const int64_t numel = entry.input.numel();
    if (seed.shape() != entry.input.shape() || numel == 0) {
      // Defensive: nothing to walk back against; keep the entry as recorded.
      MergeFootprint(acc, final_fp);
      minimized.push_back(std::move(out));
      continue;
    }
    const int64_t num_blocks =
        std::min<int64_t>(static_cast<int64_t>(options.regions), numel);
    const auto block_begin = [&](int64_t b) { return b * numel / num_blocks; };

    // Both invariants a revert must preserve: the entry's disagreement (by
    // the session's oracle, with classification labels pinned to the stored
    // ones), and — per model — covered(base ⊕ candidate) == target, where
    // target was computed with the original entry in place. Equality (not
    // >=) so the minimized corpus' merged coverage lands exactly on the
    // original's.
    const auto accepted = [&](const Prediction& prediction, const CoverageFootprint& fp) {
      if (!ModelsDisagree(prediction, eps) || prediction.labels != entry.labels) {
        return false;
      }
      for (size_t k = 0; k < base.size(); ++k) {
        auto probe = base[k]->Clone();
        probe->Merge(*fp[k]);
        if (probe->covered_items() != targets[k]) {
          return false;
        }
      }
      return true;
    };

    Tensor current = entry.input;
    bool changed = false;
    bool progressed = false;
    // Takes an accepted revert: its input, plus the predictions and
    // footprint it was accepted with. A regression revert moves the outputs,
    // and with them possibly the deviator, so both are re-stamped.
    const auto take = [&](Tensor& input, const Prediction& prediction, CoverageFootprint& fp) {
      current = std::move(input);
      out.deviating_model = DeviatingModel(prediction);
      out.labels = prediction.labels;
      out.outputs = prediction.outputs;
      final_fp = std::move(fp);
      progressed = changed = true;
    };
    for (int round = 0; round < options.max_rounds; ++round) {
      // One candidate per block that still differs from the seed.
      std::vector<int64_t> block_ids;
      std::vector<Tensor> candidates;
      for (int64_t b = 0; b < num_blocks; ++b) {
        const int64_t lo = block_begin(b);
        const int64_t hi = block_begin(b + 1);
        bool differs = false;
        for (int64_t j = lo; j < hi && !differs; ++j) {
          differs = current[j] != seed[j];
        }
        if (!differs) {
          continue;
        }
        Tensor cand = current;
        RevertBlock(cand, seed, lo, hi);
        block_ids.push_back(b);
        candidates.push_back(std::move(cand));
      }
      if (candidates.empty()) {
        break;
      }
      std::vector<Prediction> predictions;
      std::vector<CoverageFootprint> fps =
          ComputeFootprints(session, plans, SamplePointers(candidates), &predictions);
      std::vector<size_t> passing;
      for (size_t j = 0; j < fps.size(); ++j) {
        if (accepted(predictions[j], fps[j])) {
          passing.push_back(j);
        }
      }
      if (passing.empty()) {
        break;
      }
      progressed = false;
      if (passing.size() == 1) {
        take(candidates[passing[0]], predictions[passing[0]], fps[passing[0]]);
      } else {
        // All individually-safe reverts at once: one extra forward, and the
        // common case when the blocks' effects are independent.
        Tensor combined = current;
        for (size_t j : passing) {
          RevertBlock(combined, seed, block_begin(block_ids[j]),
                      block_begin(block_ids[j] + 1));
        }
        std::vector<CoverageFootprint> combo =
            ComputeFootprints(session, plans, {&combined}, &predictions);
        if (accepted(predictions[0], combo[0])) {
          take(combined, predictions[0], combo[0]);
        } else {
          // The reverts interact; take them one at a time, re-validating
          // against the evolving input.
          for (size_t j : passing) {
            Tensor cand = current;
            RevertBlock(cand, seed, block_begin(block_ids[j]),
                        block_begin(block_ids[j] + 1));
            std::vector<CoverageFootprint> one =
                ComputeFootprints(session, plans, {&cand}, &predictions);
            if (accepted(predictions[0], one[0])) {
              take(cand, predictions[0], one[0]);
            }
          }
        }
      }
      if (!progressed) {
        break;
      }
    }

    if (changed) {
      ++result.modified_entries;
      result.reverted_values += PerturbedValues(entry.input, seed) -
                                PerturbedValues(current, seed);
      out.input = std::move(current);
    }
    MergeFootprint(acc, final_fp);
    minimized.push_back(std::move(out));
  }

  return result;
}

}  // namespace

MaintenanceReport MinimizeCorpus(Session& session, const Corpus& corpus,
                                 const MinimizeOptions& options) {
  if (options.regions < 1) {
    throw std::invalid_argument("MinimizeCorpus: regions must be >= 1");
  }
  if (options.max_rounds < 1) {
    throw std::invalid_argument("MinimizeCorpus: max_rounds must be >= 1");
  }
  for (const GeneratedTest& entry : corpus.entries()) {
    if (entry.seed_index < 0 ||
        static_cast<size_t>(entry.seed_index) >= corpus.meta().seeds.size()) {
      throw std::invalid_argument(
          "MinimizeCorpus: entry references seed " +
          std::to_string(entry.seed_index) + " outside the manifest pool");
    }
  }
  return RunMaintenancePass(session, corpus, "minimize", options.out_dir,
                            [&](std::vector<CoverageFootprint>& footprints) {
                              return MinimizeEntries(session, corpus, options, footprints);
                            });
}

}  // namespace dx
