#include "src/corpus/maintenance.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/nn/execution_plan.h"
#include "src/tensor/ops.h"
#include "src/util/serialize.h"
#include "src/util/timer.h"

namespace dx {

namespace {

// Stacks inputs [begin, end) into one batched tensor.
Tensor StackRange(const std::vector<const Tensor*>& inputs, size_t begin, size_t end) {
  std::vector<const Tensor*> chunk(inputs.begin() + static_cast<ptrdiff_t>(begin),
                                   inputs.begin() + static_cast<ptrdiff_t>(end));
  return StackSamples(chunk);
}

}  // namespace

std::string MaintenanceReport::ToString() const {
  std::ostringstream out;
  out << transform << ": " << input_entries << " -> " << retained_entries
      << " entries";
  if (modified_entries > 0 || transform == "minimize") {
    out << ", " << modified_entries << " minimized (" << reverted_values
        << " values reverted to seed)";
  }
  out << " in " << seconds << "s\n";
  for (const ModelCoverageDelta& d : coverage) {
    out << "  " << d.model << ": covered " << d.covered_before << " -> "
        << d.covered_after << " of " << d.total_items << " items\n";
  }
  return out.str();
}

std::vector<CoverageFootprint> ComputeFootprints(
    Session& session, const std::vector<const Tensor*>& inputs) {
  std::vector<CoverageFootprint> footprints(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    footprints[i].reserve(static_cast<size_t>(session.num_models()));
    for (int k = 0; k < session.num_models(); ++k) {
      footprints[i].push_back(session.metric(k).Clone());
    }
  }
  if (inputs.empty()) {
    return footprints;
  }
  const size_t width = static_cast<size_t>(std::max(1, session.config().batch_size));
  for (int k = 0; k < session.num_models(); ++k) {
    const Model& model = session.model(k);
    ExecutionPlan plan = model.Compile(static_cast<int>(std::min(width, inputs.size())));
    for (size_t begin = 0; begin < inputs.size(); begin += width) {
      const size_t end = std::min(inputs.size(), begin + width);
      plan.ForwardBatch(StackRange(inputs, begin, end), static_cast<int>(end - begin));
      for (size_t b = begin; b < end; ++b) {
        footprints[b][static_cast<size_t>(k)]->UpdateBatch(
            model, plan.SampleTrace(static_cast<int>(b - begin)));
      }
    }
  }
  return footprints;
}

CoverageFootprint CloneFootprint(const CoverageFootprint& fp) {
  CoverageFootprint clone;
  clone.reserve(fp.size());
  for (const auto& metric : fp) {
    clone.push_back(metric->Clone());
  }
  return clone;
}

void MergeFootprint(CoverageFootprint& acc, const CoverageFootprint& fp) {
  if (acc.size() != fp.size()) {
    throw std::invalid_argument("MergeFootprint: model count mismatch");
  }
  for (size_t k = 0; k < acc.size(); ++k) {
    acc[k]->Merge(*fp[k]);
  }
}

int64_t CoveredItems(const CoverageFootprint& fp) {
  int64_t covered = 0;
  for (const auto& metric : fp) {
    covered += metric->covered_items();
  }
  return covered;
}

bool AddsCoverage(const CoverageFootprint& acc, const CoverageFootprint& fp) {
  for (size_t k = 0; k < acc.size(); ++k) {
    auto probe = acc[k]->Clone();
    probe->Merge(*fp[k]);
    if (probe->covered_items() > acc[k]->covered_items()) {
      return true;
    }
  }
  return false;
}

float MeanFootprintCoverage(const CoverageFootprint& fp) {
  double sum = 0.0;
  for (const auto& metric : fp) {
    sum += metric->Coverage();
  }
  return static_cast<float>(sum / static_cast<double>(fp.size()));
}

void WriteDerivedCorpus(const Corpus& source, const std::string& transform,
                        const std::vector<GeneratedTest>& entries,
                        const CoverageFootprint& merged, const std::string& out_dir) {
  if (!source.initialized() || !source.has_checkpoint()) {
    throw std::invalid_argument(
        "WriteDerivedCorpus: source corpus has no recorded campaign");
  }
  if (out_dir == source.dir()) {
    throw std::invalid_argument(
        "WriteDerivedCorpus: output must be a new directory (source is never "
        "rewritten in place)");
  }
  CorpusMeta meta = source.meta();
  const auto set_meta = [&meta](const std::string& key, const std::string& value) {
    for (auto& [k, v] : meta.metadata) {
      if (k == key) {
        v = value;
        return;
      }
    }
    meta.metadata.emplace_back(key, value);
  };
  // Transform chains compose left to right: "distill+dedup+minimize".
  const std::string* prior = meta.FindMetadata("transform");
  set_meta("transform", prior != nullptr ? *prior + "+" + transform : transform);
  set_meta("derived_from", source.dir());

  Corpus out(out_dir);
  if (out.initialized()) {
    throw std::invalid_argument("WriteDerivedCorpus: " + out_dir +
                                " already holds a corpus");
  }
  out.Initialize(std::move(meta));
  for (const GeneratedTest& entry : entries) {
    out.AppendEntry(entry);
  }

  CorpusCheckpoint cp;
  // Run counters travel as provenance of the generating campaign; the
  // entry/journal marks describe THIS corpus.
  const CorpusCheckpoint& src = source.checkpoint();
  cp.complete = true;
  cp.task_counter = src.task_counter;
  cp.seeds_tried = src.seeds_tried;
  cp.seeds_skipped = src.seeds_skipped;
  cp.total_iterations = src.total_iterations;
  cp.forward_passes = src.forward_passes;
  cp.num_tests = entries.size();
  cp.num_batches = 0;
  cp.mean_coverage = MeanFootprintCoverage(merged);
  for (const auto& metric : merged) {
    std::ostringstream blob;
    BinaryWriter writer(blob);
    metric->Serialize(writer);
    cp.metric_blobs.push_back(blob.str());
  }
  out.WriteCheckpoint(cp);
}

ReplayResult VerifyDerivedCorpus(Session& session, const Corpus& corpus) {
  Timer timer;
  ReplayResult result;
  const auto fail = [&result](const std::string& what) {
    result.ok = false;
    if (result.mismatch.empty()) {
      result.mismatch = what;
    }
  };
  const CorpusMeta& meta = corpus.meta();
  if (meta.model_names.size() != static_cast<size_t>(session.num_models())) {
    throw std::invalid_argument("VerifyDerivedCorpus: corpus records " +
                                std::to_string(meta.model_names.size()) +
                                " models, session has " +
                                std::to_string(session.num_models()));
  }
  for (int k = 0; k < session.num_models(); ++k) {
    if (meta.model_names[static_cast<size_t>(k)] != session.model(k).name()) {
      throw std::invalid_argument("VerifyDerivedCorpus: model " + std::to_string(k) +
                                  " is " + session.model(k).name() +
                                  ", corpus recorded " +
                                  meta.model_names[static_cast<size_t>(k)]);
    }
  }
  if (meta.metric != session.config().metric) {
    throw std::invalid_argument("VerifyDerivedCorpus: corpus metric " + meta.metric +
                                " != session metric " + session.config().metric);
  }

  // Re-derive coverage from scratch: fresh trackers, seed calibration, then
  // every entry's activations per model in entry order — exactly what the
  // maintenance pass serialized into the checkpoint.
  session.ResetRunState();
  if (meta.profile_from_seeds) {
    session.ProfileSeeds(meta.seeds);
  }

  const std::vector<GeneratedTest>& entries = corpus.entries();
  const bool regression = session.regression();
  const float eps = session.config().engine.steering_eps;
  std::vector<std::vector<int>> labels(entries.size());
  std::vector<std::vector<float>> outputs(entries.size());
  if (!entries.empty()) {
    std::vector<const Tensor*> inputs;
    inputs.reserve(entries.size());
    for (const GeneratedTest& entry : entries) {
      inputs.push_back(&entry.input);
    }
    const size_t width =
        static_cast<size_t>(std::max(1, session.config().batch_size));
    for (int k = 0; k < session.num_models(); ++k) {
      const Model& model = session.model(k);
      ExecutionPlan plan =
          model.Compile(static_cast<int>(std::min(width, inputs.size())));
      const int last = model.num_layers() - 1;
      for (size_t begin = 0; begin < inputs.size(); begin += width) {
        const size_t end = std::min(inputs.size(), begin + width);
        const BatchTrace& trace = plan.ForwardBatch(StackRange(inputs, begin, end),
                                                    static_cast<int>(end - begin));
        for (size_t b = begin; b < end; ++b) {
          const Tensor out = trace.SampleOutput(last, static_cast<int>(b - begin));
          if (regression) {
            outputs[b].push_back(out[0]);
          } else {
            labels[b].push_back(static_cast<int>(out.Argmax()));
          }
        }
        session.metric(k).UpdateBatch(model, trace);
      }
    }
  }

  for (size_t i = 0; i < entries.size() && result.ok; ++i) {
    const GeneratedTest& entry = entries[i];
    const std::string at = "entry " + std::to_string(i) + ": ";
    if (regression) {
      if (outputs[i] != entry.outputs) {
        fail(at + "re-predicted outputs diverge from the stored provenance");
      } else {
        const auto [lo, hi] = std::minmax_element(outputs[i].begin(), outputs[i].end());
        if (*hi - *lo <= eps) {
          fail(at + "input is no longer difference-inducing (spread <= steering_eps)");
        }
      }
    } else {
      if (labels[i] != entry.labels) {
        fail(at + "re-predicted labels diverge from the stored provenance");
      } else if (std::all_of(labels[i].begin(), labels[i].end(),
                             [&](int l) { return l == labels[i][0]; })) {
        fail(at + "input is no longer difference-inducing (models agree)");
      }
    }
  }

  const CorpusCheckpoint& cp = corpus.checkpoint();
  if (result.ok && cp.num_tests != entries.size()) {
    fail("checkpoint records " + std::to_string(cp.num_tests) + " tests, corpus holds " +
         std::to_string(entries.size()));
  }
  if (result.ok && cp.metric_blobs.size() != static_cast<size_t>(session.num_models())) {
    fail("checkpoint holds " + std::to_string(cp.metric_blobs.size()) +
         " coverage snapshots for " + std::to_string(session.num_models()) + " models");
  }
  if (result.ok) {
    for (int k = 0; k < session.num_models() && result.ok; ++k) {
      std::ostringstream blob;
      BinaryWriter writer(blob);
      session.metric(k).Serialize(writer);
      if (blob.str() != cp.metric_blobs[static_cast<size_t>(k)]) {
        fail("model " + session.model(k).name() +
             ": re-derived coverage state differs from the checkpoint snapshot");
      }
    }
  }
  if (result.ok && session.MeanCoverage() != cp.mean_coverage) {
    fail("re-derived mean coverage differs from the checkpoint");
  }

  result.stats.tests = entries;
  result.stats.seeds_tried = cp.seeds_tried;
  result.stats.seeds_skipped = cp.seeds_skipped;
  result.stats.total_iterations = cp.total_iterations;
  result.stats.forward_passes = cp.forward_passes;
  result.stats.mean_coverage = session.MeanCoverage();
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace dx
