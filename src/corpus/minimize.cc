#include "src/corpus/minimize.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/nn/execution_plan.h"
#include "src/tensor/ops.h"
#include "src/util/timer.h"

namespace dx {

namespace {

// One candidate's forward results: per-model predictions plus its coverage
// footprint (calibrated-empty clones updated with the candidate's trace).
struct CandidateEval {
  std::vector<int> labels;     // Per model (classification).
  std::vector<float> outputs;  // Per model (regression).
  CoverageFootprint fp;
};

// Batch-evaluates all candidates through the per-model plans. `plans[k]` must
// have capacity >= `width`.
std::vector<CandidateEval> EvaluateCandidates(
    Session& session, std::vector<ExecutionPlan>& plans, size_t width,
    const std::vector<const Tensor*>& candidates) {
  std::vector<CandidateEval> evals(candidates.size());
  for (CandidateEval& e : evals) {
    e.fp.reserve(static_cast<size_t>(session.num_models()));
    for (int k = 0; k < session.num_models(); ++k) {
      e.fp.push_back(session.metric(k).Clone());
    }
  }
  const bool regression = session.regression();
  for (int k = 0; k < session.num_models(); ++k) {
    const Model& model = session.model(k);
    const int last = model.num_layers() - 1;
    for (size_t begin = 0; begin < candidates.size(); begin += width) {
      const size_t end = std::min(candidates.size(), begin + width);
      std::vector<const Tensor*> chunk(
          candidates.begin() + static_cast<ptrdiff_t>(begin),
          candidates.begin() + static_cast<ptrdiff_t>(end));
      ExecutionPlan& plan = plans[static_cast<size_t>(k)];
      const BatchTrace& trace =
          plan.ForwardBatch(StackSamples(chunk), static_cast<int>(end - begin));
      for (size_t b = begin; b < end; ++b) {
        const int pos = static_cast<int>(b - begin);
        const Tensor out = trace.SampleOutput(last, pos);
        if (regression) {
          evals[b].outputs.push_back(out[0]);
        } else {
          evals[b].labels.push_back(static_cast<int>(out.Argmax()));
        }
        evals[b].fp[static_cast<size_t>(k)]->UpdateBatch(model, plan.SampleTrace(pos));
      }
    }
  }
  return evals;
}

// Both invariants the pass must preserve: the entry's disagreement, and —
// per model — covered(base ⊕ candidate) == target, where target was computed
// with the original entry in place. Equality (not >=) so the minimized
// corpus' merged coverage lands exactly on the original's.
bool Accepted(const CandidateEval& eval, const GeneratedTest& entry,
              bool regression, float eps, const CoverageFootprint& base,
              const std::vector<int64_t>& targets) {
  if (regression) {
    const auto [lo, hi] = std::minmax_element(eval.outputs.begin(), eval.outputs.end());
    if (*hi - *lo <= eps) {
      return false;
    }
  } else if (eval.labels != entry.labels) {
    return false;
  }
  for (size_t k = 0; k < base.size(); ++k) {
    auto probe = base[k]->Clone();
    probe->Merge(*eval.fp[k]);
    if (probe->covered_items() != targets[k]) {
      return false;
    }
  }
  return true;
}

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

}  // namespace

MaintenanceReport MinimizeCorpus(Session& session, const Corpus& corpus,
                                 const MinimizeOptions& options) {
  if (options.out_dir.empty()) {
    throw std::invalid_argument("MinimizeCorpus: out_dir must be set");
  }
  if (options.regions < 1) {
    throw std::invalid_argument("MinimizeCorpus: regions must be >= 1");
  }
  if (options.max_rounds < 1) {
    throw std::invalid_argument("MinimizeCorpus: max_rounds must be >= 1");
  }
  Timer timer;
  const CorpusMeta& meta = corpus.meta();
  session.ResetRunState();
  if (meta.profile_from_seeds) {
    session.ProfileSeeds(meta.seeds);
  }

  const std::vector<GeneratedTest>& entries = corpus.entries();
  std::vector<const Tensor*> inputs;
  inputs.reserve(entries.size());
  for (const GeneratedTest& entry : entries) {
    if (entry.seed_index < 0 ||
        static_cast<size_t>(entry.seed_index) >= meta.seeds.size()) {
      throw std::invalid_argument(
          "MinimizeCorpus: entry references seed " +
          std::to_string(entry.seed_index) + " outside the manifest pool");
    }
    inputs.push_back(&entry.input);
  }
  std::vector<CoverageFootprint> footprints = ComputeFootprints(session, inputs);

  // suffix[i] = merged original footprints of entries i..n-1; suffix[n] is
  // empty. base_i = minimized-prefix ⊕ suffix[i+1] is everything covered
  // around entry i while it is being reduced.
  const size_t n = entries.size();
  std::vector<CoverageFootprint> suffix(n + 1);
  for (int k = 0; k < session.num_models(); ++k) {
    suffix[n].push_back(session.metric(k).Clone());
  }
  for (size_t i = n; i-- > 0;) {
    suffix[i] = CloneFootprint(suffix[i + 1]);
    MergeFootprint(suffix[i], footprints[i]);
  }
  CoverageFootprint acc = CloneFootprint(suffix[n]);

  const size_t width = static_cast<size_t>(std::max(1, session.config().batch_size));
  std::vector<ExecutionPlan> plans;
  plans.reserve(static_cast<size_t>(session.num_models()));
  for (int k = 0; k < session.num_models(); ++k) {
    plans.push_back(session.model(k).Compile(static_cast<int>(width)));
  }

  const bool regression = session.regression();
  const float eps = session.config().engine.steering_eps;
  MaintenanceReport report;
  report.transform = "minimize";
  report.input_entries = n;
  report.retained_entries = n;

  std::vector<GeneratedTest> minimized;
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

    Tensor current = entry.input;
    bool changed = false;
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
      std::vector<const Tensor*> cand_ptrs;
      cand_ptrs.reserve(candidates.size());
      for (const Tensor& cand : candidates) {
        cand_ptrs.push_back(&cand);
      }
      std::vector<CandidateEval> evals =
          EvaluateCandidates(session, plans, width, cand_ptrs);
      std::vector<size_t> passing;
      for (size_t j = 0; j < evals.size(); ++j) {
        if (Accepted(evals[j], entry, regression, eps, base, targets)) {
          passing.push_back(j);
        }
      }
      if (passing.empty()) {
        break;
      }
      bool progressed = false;
      if (passing.size() == 1) {
        const size_t j = passing[0];
        current = std::move(candidates[j]);
        if (regression) {
          out.outputs = evals[j].outputs;
        }
        final_fp = std::move(evals[j].fp);
        progressed = changed = true;
      } else {
        // All individually-safe reverts at once: one extra forward, and the
        // common case when the blocks' effects are independent.
        Tensor combined = current;
        for (size_t j : passing) {
          RevertBlock(combined, seed, block_begin(block_ids[j]),
                      block_begin(block_ids[j] + 1));
        }
        std::vector<CandidateEval> combo =
            EvaluateCandidates(session, plans, width, {&combined});
        if (Accepted(combo[0], entry, regression, eps, base, targets)) {
          current = std::move(combined);
          if (regression) {
            out.outputs = combo[0].outputs;
          }
          final_fp = std::move(combo[0].fp);
          progressed = changed = true;
        } else {
          // The reverts interact; take them one at a time, re-validating
          // against the evolving input.
          for (size_t j : passing) {
            Tensor cand = current;
            RevertBlock(cand, seed, block_begin(block_ids[j]),
                        block_begin(block_ids[j] + 1));
            std::vector<CandidateEval> one =
                EvaluateCandidates(session, plans, width, {&cand});
            if (Accepted(one[0], entry, regression, eps, base, targets)) {
              current = std::move(cand);
              if (regression) {
                out.outputs = one[0].outputs;
              }
              final_fp = std::move(one[0].fp);
              progressed = changed = true;
            }
          }
        }
      }
      if (!progressed) {
        break;
      }
    }

    if (changed) {
      ++report.modified_entries;
      report.reverted_values += PerturbedValues(entry.input, seed) -
                                PerturbedValues(current, seed);
      out.input = std::move(current);
    }
    MergeFootprint(acc, final_fp);
    minimized.push_back(std::move(out));
  }

  for (int k = 0; k < session.num_models(); ++k) {
    ModelCoverageDelta delta;
    delta.model = session.model(k).name();
    delta.covered_before = suffix[0][static_cast<size_t>(k)]->covered_items();
    delta.covered_after = acc[static_cast<size_t>(k)]->covered_items();
    delta.total_items = acc[static_cast<size_t>(k)]->total_items();
    report.coverage.push_back(delta);
  }

  WriteDerivedCorpus(corpus, "minimize", minimized, acc, options.out_dir);
  report.seconds = timer.ElapsedSeconds();
  return report;
}

}  // namespace dx
