#include "src/corpus/distill.h"

#include <stdexcept>

#include "src/util/timer.h"

namespace dx {

MaintenanceReport DistillCorpus(Session& session, const Corpus& corpus,
                                const DistillOptions& options) {
  if (options.out_dir.empty()) {
    throw std::invalid_argument("DistillCorpus: out_dir must be set");
  }
  Timer timer;
  session.ResetForCorpus(corpus);

  const std::vector<GeneratedTest>& entries = corpus.entries();
  std::vector<CoverageFootprint> footprints = ComputeFootprints(session, TestInputs(entries));

  // Greedy subsumption scan: retained coverage grows monotonically; an entry
  // whose footprint adds nothing is — by monotonicity — subsumed forever.
  CoverageFootprint retained_cov;
  for (int k = 0; k < session.num_models(); ++k) {
    retained_cov.push_back(session.metric(k).Clone());  // Empty but calibrated.
  }
  CoverageFootprint original_cov = CloneFootprint(retained_cov);
  std::vector<GeneratedTest> retained;
  for (size_t i = 0; i < entries.size(); ++i) {
    MergeFootprint(original_cov, footprints[i]);
    if (AddsCoverage(retained_cov, footprints[i])) {
      MergeFootprint(retained_cov, footprints[i]);
      retained.push_back(entries[i]);
    }
  }

  MaintenanceReport report;
  report.transform = "distill";
  report.input_entries = entries.size();
  report.retained_entries = retained.size();
  for (int k = 0; k < session.num_models(); ++k) {
    ModelCoverageDelta delta;
    delta.model = session.model(k).name();
    delta.covered_before = original_cov[static_cast<size_t>(k)]->covered_items();
    delta.covered_after = retained_cov[static_cast<size_t>(k)]->covered_items();
    delta.total_items = retained_cov[static_cast<size_t>(k)]->total_items();
    report.coverage.push_back(delta);
  }

  WriteDerivedCorpus(corpus, "distill", retained, retained_cov, options.out_dir);
  report.seconds = timer.ElapsedSeconds();
  return report;
}

}  // namespace dx
