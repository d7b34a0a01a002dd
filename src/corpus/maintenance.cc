#include "src/corpus/maintenance.h"

#include <sstream>
#include <stdexcept>

#include "src/nn/execution_plan.h"
#include "src/util/serialize.h"
#include "src/util/timer.h"

namespace dx {

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

std::vector<CoverageFootprint> ComputeFootprints(Session& session,
                                                 const std::vector<const Tensor*>& inputs) {
  std::vector<ExecutionPlan> plans;
  plans.reserve(static_cast<size_t>(session.num_models()));
  for (int k = 0; k < session.num_models(); ++k) {
    plans.push_back(
        session.model(k).Compile(ChunkCapacity(inputs.size(), session.config().batch_size)));
  }
  return ComputeFootprints(session, plans, inputs, nullptr);
}

std::vector<CoverageFootprint> ComputeFootprints(Session& session,
                                                 std::vector<ExecutionPlan>& plans,
                                                 const std::vector<const Tensor*>& inputs,
                                                 std::vector<Prediction>* predictions) {
  if (predictions != nullptr) {
    predictions->assign(inputs.size(), Prediction{});
  }
  std::vector<CoverageFootprint> footprints(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    footprints[i].reserve(static_cast<size_t>(session.num_models()));
    for (int k = 0; k < session.num_models(); ++k) {
      footprints[i].push_back(session.metric(k).Clone());
    }
  }
  for (int k = 0; k < session.num_models(); ++k) {
    const Model& model = session.model(k);
    ExecutionPlan& plan = plans[static_cast<size_t>(k)];
    plan.ForwardChunks(inputs, [&](size_t begin, const BatchTrace& trace) {
      for (int b = 0; b < trace.batch; ++b) {
        const size_t i = begin + static_cast<size_t>(b);
        footprints[i][static_cast<size_t>(k)]->UpdateBatch(model, plan.SampleTrace(b));
        if (predictions == nullptr) {
          continue;
        }
        if (session.regression()) {
          (*predictions)[i].outputs.push_back(trace.SampleScalar(b));
        } else {
          (*predictions)[i].labels.push_back(trace.SampleLabel(b));
        }
      }
    });
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
    result.mismatch = what;
  };
  // Re-derive coverage from scratch: fresh trackers, seed calibration, then
  // every entry's activations per model in entry order — exactly what the
  // maintenance pass serialized into the checkpoint.
  session.ResetForCorpus(corpus);
  const std::vector<GeneratedTest>& entries = corpus.entries();
  const std::vector<const Tensor*> inputs = TestInputs(entries);
  for (int k = 0; k < session.num_models(); ++k) {
    const Model& model = session.model(k);
    ExecutionPlan plan =
        model.Compile(ChunkCapacity(inputs.size(), session.config().batch_size));
    plan.ForwardChunks(inputs, [&](size_t, const BatchTrace& trace) {
      session.metric(k).UpdateBatch(model, trace);
    });
  }

  const CorpusCheckpoint& cp = corpus.checkpoint();
  if (cp.num_tests != entries.size()) {
    fail("checkpoint records " + std::to_string(cp.num_tests) + " tests, corpus holds " +
         std::to_string(entries.size()));
  } else if (std::string mismatch = session.StoredStateMismatch(corpus); !mismatch.empty()) {
    fail(mismatch);
  } else if (session.MeanCoverage() != cp.mean_coverage) {
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
