#ifndef DX_SERVICE_CAMPAIGN_MANAGER_H_
#define DX_SERVICE_CAMPAIGN_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/corpus/maintenance.h"
#include "src/service/campaign.h"
#include "src/util/thread_pool.h"

namespace dx {

struct ManagerOptions {
  // Campaigns stepped concurrently (each gets one manager worker thread).
  int campaign_workers = 2;
  // Threads in the shared compute pool every campaign's executor drainers
  // run on (ParallelFor adds the calling worker, so parallelism is this + 1).
  // 0 sizes it to hardware concurrency - 1 (at least 1).
  int compute_threads = 0;
  // Sync batches per scheduling slice: a campaign steps this many batches,
  // then goes back to the queue so concurrent campaigns interleave fairly.
  int slice_batches = 1;
};

// Multiplexes many concurrent campaigns over one shared compute pool and one
// shared trained-model cache. Campaign workers pop ids off a queue, step the
// campaign one slice (slice_batches sync batches), publish a progress
// snapshot, and requeue it — so N campaigns share the machine at batch
// granularity while each one's results stay bit-identical to a standalone
// Session::Run (worker-count/batch-size invariance is the engine's core
// guarantee; the service only ever cuts at sync-batch boundaries).
class CampaignManager {
 public:
  explicit CampaignManager(ManagerOptions options = {});
  ~CampaignManager();  // Stop(): halts workers; campaigns keep their last checkpoint.
  CampaignManager(const CampaignManager&) = delete;
  CampaignManager& operator=(const CampaignManager&) = delete;

  // Validates the spec cheaply (domain and plug-in keys registered,
  // batch_size >= 1, corpus dir not already claimed / holds the right
  // campaign) and queues the campaign. Model
  // loading and training happen on a worker at first pick-up. Throws
  // std::invalid_argument on a bad spec or when draining.
  uint64_t Submit(CampaignSpec spec);

  // Snapshot of one campaign; throws std::out_of_range for unknown ids.
  CampaignStatus Status(uint64_t id) const;
  // Snapshots of all campaigns, id order.
  std::vector<CampaignStatus> List() const;

  // Requests a pause at the next batch boundary. False if the campaign is
  // already terminal or paused.
  bool Pause(uint64_t id);
  // Requeues a paused campaign. False unless currently paused.
  bool Resume(uint64_t id);
  // Cancels at the next batch boundary (PENDING/PAUSED cancel immediately).
  // The corpus keeps its last checkpoint, so a cancelled durable campaign
  // can be resubmitted with resume=true. False if already terminal.
  bool Cancel(uint64_t id);

  // Full final stats of a DONE campaign (bit-identity tests compare these
  // against standalone Session::Run). Throws unless state == kDone.
  RunStats Results(uint64_t id) const;

  // Runs CompactCorpus (src/corpus/maintenance.h) over campaign `id`'s
  // recorded corpus. A live campaign is paused at its next sync-batch
  // boundary first (the corpus is only ever read between batches) and
  // requeued afterwards; paused/terminal campaigns are compacted in place of
  // wherever they stopped. Blocks the caller for the duration. Throws
  // std::invalid_argument on bad options / ephemeral campaigns and
  // std::runtime_error when verification fails or the boundary never comes.
  CompactResult Compact(uint64_t id, const CompactOptions& options);

  // Compactions completed since the daemon started, and the last one's
  // result (false when none has run yet) — what /metrics serves.
  uint64_t compactions_total() const;
  bool LastCompaction(CompactResult* out) const;

  // Stops accepting submissions, pauses every live campaign at its next
  // batch boundary (PENDING ones pause before their first batch), and
  // returns once no worker is executing. Durable campaigns have a fresh
  // checkpoint; a restarted daemon resumes them bit-identically.
  void Drain();

  bool draining() const;
  // Process-wide counters for /metrics.
  uint64_t submitted_total() const;

 private:
  void WorkerLoop();
  // Executes one slice of campaign `id` on the calling worker thread.
  void RunSlice(uint64_t id);
  void InitializeLocked(Campaign& c);  // called without the mutex held (exec state)
  // Trained models of a domain via the shared blob cache (first call per
  // domain trains/loads under the zoo mutex; later calls deserialize copies).
  std::vector<Model> LoadModels(const std::string& domain_key);
  void Enqueue(uint64_t id);  // requires mu_ held

  ManagerOptions options_;
  std::unique_ptr<ThreadPool> compute_pool_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  // workers wait for ids
  std::condition_variable idle_cv_;   // Drain() waits for executing == 0
  std::deque<uint64_t> queue_;
  std::map<uint64_t, std::unique_ptr<Campaign>> campaigns_;
  uint64_t next_id_ = 1;
  uint64_t submitted_total_ = 0;
  uint64_t compactions_total_ = 0;
  bool has_compaction_ = false;
  CompactResult last_compaction_;
  int executing_count_ = 0;
  bool draining_ = false;
  bool stopping_ = false;

  // Shared trained-model cache: domain key -> serialized model blobs. Models
  // are move-only, so each campaign deserializes its own copies; ModelZoo's
  // disk cache is not thread-safe, so training happens under zoo_mu_.
  std::mutex zoo_mu_;
  std::map<std::string, std::vector<std::string>> zoo_blobs_;
};

}  // namespace dx

#endif  // DX_SERVICE_CAMPAIGN_MANAGER_H_
