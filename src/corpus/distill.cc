#include "src/corpus/distill.h"

namespace dx {

MaintenanceReport DistillCorpus(Session& session, const Corpus& corpus,
                                const DistillOptions& options) {
  return RunMaintenancePass(
      session, corpus, "distill", options.out_dir,
      [&](std::vector<CoverageFootprint>& footprints) {
        // Greedy subsumption scan: retained coverage grows monotonically; an
        // entry whose footprint adds nothing is — by monotonicity — subsumed
        // forever.
        PassOutcome out;
        out.coverage = EmptyFootprint(session);
        for (size_t i = 0; i < footprints.size(); ++i) {
          if (AddsCoverage(out.coverage, footprints[i])) {
            MergeFootprint(out.coverage, footprints[i]);
            out.entries.push_back(corpus.entries()[i]);
          }
        }
        return out;
      });
}

}  // namespace dx
