#include "src/corpus/maintenance.h"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "src/corpus/dedup.h"
#include "src/corpus/distill.h"
#include "src/corpus/minimize.h"
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
  for (CoverageFootprint& fp : footprints) {
    fp = EmptyFootprint(session);
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

CoverageFootprint EmptyFootprint(const Session& session) {
  CoverageFootprint fp;
  fp.reserve(static_cast<size_t>(session.num_models()));
  for (int k = 0; k < session.num_models(); ++k) {
    fp.push_back(session.metric(k).Clone());
  }
  return fp;
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

MaintenanceReport RunMaintenancePass(Session& session, const Corpus& corpus,
                                     const std::string& transform,
                                     const std::string& out_dir, const PassBody& body) {
  if (out_dir.empty()) {
    throw std::invalid_argument(transform + ": out_dir must be set");
  }
  Timer timer;
  session.ResetForCorpus(corpus);
  const std::vector<GeneratedTest>& entries = corpus.entries();
  std::vector<CoverageFootprint> footprints = ComputeFootprints(session, TestInputs(entries));
  CoverageFootprint before = EmptyFootprint(session);
  for (const CoverageFootprint& fp : footprints) {
    MergeFootprint(before, fp);
  }
  const PassOutcome outcome = body(footprints);

  MaintenanceReport report;
  report.transform = transform;
  report.input_entries = entries.size();
  report.retained_entries = outcome.entries.size();
  report.modified_entries = outcome.modified_entries;
  report.reverted_values = outcome.reverted_values;
  for (int k = 0; k < session.num_models(); ++k) {
    const CoverageMetric& after = *outcome.coverage[static_cast<size_t>(k)];
    ModelCoverageDelta delta;
    delta.model = session.model(k).name();
    delta.covered_before = before[static_cast<size_t>(k)]->covered_items();
    delta.covered_after = after.covered_items();
    delta.total_items = after.total_items();
    report.coverage.push_back(delta);
  }
  WriteDerivedCorpus(corpus, transform, outcome.entries, outcome.coverage, out_dir);
  report.seconds = timer.ElapsedSeconds();
  return report;
}

void CheckCompactOptions(const CompactOptions& options) {
  if (options.out_dir.empty()) {
    throw std::invalid_argument("compact: out_dir must be set");
  }
  if (!options.distill && !options.dedup && !options.minimize) {
    throw std::invalid_argument("compact: select at least one pass");
  }
}

CompactResult CompactCorpus(Session& session, const Corpus& source,
                            const CompactOptions& options) {
  CheckCompactOptions(options);
  Timer timer;
  std::vector<std::string> passes;
  if (options.distill) passes.push_back("distill");
  if (options.dedup) passes.push_back("dedup");
  if (options.minimize) passes.push_back("minimize");

  CompactResult result;
  result.out_dir = options.out_dir;
  result.entries_before = source.entries().size();
  std::unique_ptr<Corpus> stage;  // The previous pass's output.
  std::vector<std::string> intermediates;
  const auto remove_intermediates = [&intermediates] {
    for (const std::string& dir : intermediates) {
      std::filesystem::remove_all(dir);
    }
  };
  try {
    for (const std::string& pass : passes) {
      const Corpus& input = stage != nullptr ? *stage : source;
      const std::string dst =
          pass == passes.back() ? options.out_dir : options.out_dir + ".stage-" + pass;
      if (pass == "distill") {
        DistillOptions distill;
        distill.out_dir = dst;
        result.reports.push_back(DistillCorpus(session, input, distill));
      } else if (pass == "dedup") {
        DedupOptions dedup;
        dedup.out_dir = dst;
        dedup.deduper = options.deduper;
        dedup.threshold = options.threshold;
        result.reports.push_back(DedupCorpus(session, input, dedup));
      } else {
        MinimizeOptions minimize;
        minimize.out_dir = dst;
        minimize.regions = options.regions;
        minimize.max_rounds = options.rounds;
        result.reports.push_back(MinimizeCorpus(session, input, minimize));
      }
      stage = std::make_unique<Corpus>(dst);
      if (dst != options.out_dir) {
        intermediates.push_back(dst);
      }
    }
  } catch (...) {
    // A failed pass leaves no staging directory to block a retry.
    remove_intermediates();
    throw;
  }
  remove_intermediates();
  result.entries_after = stage->entries().size();

  const ReplayResult verify = session.Replay(*stage);
  result.verified = verify.ok;
  result.mismatch = verify.mismatch;
  result.seconds = timer.ElapsedSeconds();
  return result;
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
