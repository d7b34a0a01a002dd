#include "src/service/campaign_manager.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "src/core/domain.h"
#include "src/models/zoo.h"

namespace dx {

const char* CampaignStateName(CampaignState state) {
  switch (state) {
    case CampaignState::kPending: return "PENDING";
    case CampaignState::kRunning: return "RUNNING";
    case CampaignState::kPaused: return "PAUSED";
    case CampaignState::kDone: return "DONE";
    case CampaignState::kFailed: return "FAILED";
    case CampaignState::kCancelled: return "CANCELLED";
  }
  return "UNKNOWN";
}

CampaignManager::CampaignManager(ManagerOptions options) : options_(options) {
  if (options_.campaign_workers < 1) {
    options_.campaign_workers = 1;
  }
  if (options_.slice_batches < 1) {
    options_.slice_batches = 1;
  }
  int threads = options_.compute_threads;
  if (threads <= 0) {
    threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  }
  compute_pool_ = std::make_unique<ThreadPool>(threads);
  workers_.reserve(static_cast<size_t>(options_.campaign_workers));
  for (int i = 0; i < options_.campaign_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

CampaignManager::~CampaignManager() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

uint64_t CampaignManager::Submit(CampaignSpec spec) {
  // Even a resumed campaign takes its batch_size from the request.
  if (spec.batch_size < 1) {
    throw std::invalid_argument("submit: batch_size must be >= 1");
  }
  if (spec.resume) {
    if (spec.corpus_dir.empty()) {
      throw std::invalid_argument("submit: resume requires corpus_dir");
    }
    Corpus probe(spec.corpus_dir);
    if (!probe.initialized()) {
      throw std::invalid_argument("submit: " + spec.corpus_dir +
                                  " holds no recorded campaign to resume");
    }
    // Status and list report the recorded domain and constraint.
    DomainAndConstraint recorded = RecordedDomain(probe.meta());
    spec.domain = std::move(recorded.domain);
    spec.constraint = std::move(recorded.constraint);
  } else {
    if (spec.seeds < 1) {
      throw std::invalid_argument("submit: seeds must be >= 1");
    }
    if (spec.sync_interval < 1) {
      throw std::invalid_argument("submit: sync_interval must be >= 1");
    }
    const auto check_key = [](const std::string& key, const std::vector<std::string>& names,
                              const std::string& what) {
      if (std::find(names.begin(), names.end(), key) == names.end()) {
        throw std::invalid_argument("submit: unknown " + what + " '" + key + "'");
      }
    };
    check_key(spec.metric, CoverageMetricNames(), "metric");
    check_key(spec.objective, ObjectiveNames(), "objective");
    check_key(spec.scheduler, SeedSchedulerNames(), "scheduler");
  }
  bool fresh_dir_initialized = false;
  if (!spec.resume && !spec.corpus_dir.empty()) {
    Corpus probe(spec.corpus_dir);
    fresh_dir_initialized = probe.initialized();
  }
  // Resolve through the registry now so an unknown domain/constraint fails
  // the submit, not the worker an arbitrary time later.
  const DomainSpec& domain = GetDomain(spec.domain);
  ResolveDomainConstraint(domain, spec.constraint);

  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_ || draining_) {
    throw std::invalid_argument("submit: manager is draining");
  }
  if (!spec.corpus_dir.empty()) {
    for (const auto& [other_id, other] : campaigns_) {
      const bool live = other->state == CampaignState::kPending ||
                        other->state == CampaignState::kRunning ||
                        other->state == CampaignState::kPaused;
      if (live && other->spec.corpus_dir == spec.corpus_dir) {
        throw std::invalid_argument("submit: corpus dir " + spec.corpus_dir +
                                    " is already in use by campaign " +
                                    std::to_string(other_id));
      }
    }
    if (fresh_dir_initialized) {
      throw std::invalid_argument(
          "submit: " + spec.corpus_dir +
          " already holds a campaign; submit with resume to continue it");
    }
  }
  const uint64_t id = next_id_++;
  auto campaign = std::make_unique<Campaign>();
  campaign->id = id;
  campaign->spec = std::move(spec);
  campaigns_.emplace(id, std::move(campaign));
  ++submitted_total_;
  Enqueue(id);
  return id;
}

CampaignStatus CampaignManager::Status(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    throw std::out_of_range("unknown campaign " + std::to_string(id));
  }
  const Campaign& c = *it->second;
  CampaignStatus status;
  status.id = c.id;
  status.state = c.state;
  status.domain = c.spec.domain;
  status.constraint = c.spec.constraint;
  status.corpus_dir = c.spec.corpus_dir;
  status.error = c.error;
  status.progress = c.progress;
  status.profile = c.profile;
  status.tests_per_second =
      c.progress.seconds > 0.0 ? c.progress.tests_found / c.progress.seconds : 0.0;
  status.has_corpus_stats = c.has_corpus_stats;
  status.corpus_stats = c.corpus_stats;
  return status;
}

std::vector<CampaignStatus> CampaignManager::List() const {
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, c] : campaigns_) {
      ids.push_back(id);
    }
  }
  std::vector<CampaignStatus> all;
  all.reserve(ids.size());
  for (uint64_t id : ids) {
    all.push_back(Status(id));
  }
  return all;
}

bool CampaignManager::Pause(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    throw std::out_of_range("unknown campaign " + std::to_string(id));
  }
  Campaign& c = *it->second;
  if (c.state != CampaignState::kPending && c.state != CampaignState::kRunning) {
    return false;
  }
  c.pause_requested.store(true);
  return true;
}

bool CampaignManager::Resume(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    throw std::out_of_range("unknown campaign " + std::to_string(id));
  }
  Campaign& c = *it->second;
  if (draining_ || stopping_) {
    return false;
  }
  if (c.state == CampaignState::kPending || c.state == CampaignState::kRunning) {
    // Un-pause a not-yet-honored pause request instead of failing.
    bool had_request = c.pause_requested.exchange(false);
    return had_request;
  }
  if (c.state != CampaignState::kPaused) {
    return false;
  }
  c.pause_requested.store(false);
  c.state = c.run == nullptr ? CampaignState::kPending : CampaignState::kRunning;
  Enqueue(id);
  return true;
}

bool CampaignManager::Cancel(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    throw std::out_of_range("unknown campaign " + std::to_string(id));
  }
  Campaign& c = *it->second;
  if (c.state == CampaignState::kDone || c.state == CampaignState::kFailed ||
      c.state == CampaignState::kCancelled) {
    return false;
  }
  c.cancel_requested.store(true);
  if (c.state == CampaignState::kPaused) {
    // No worker will visit it; requeue so one performs the cancellation
    // (and frees the execution state).
    c.state = CampaignState::kRunning;
    Enqueue(id);
  }
  return true;
}

RunStats CampaignManager::Results(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    throw std::out_of_range("unknown campaign " + std::to_string(id));
  }
  const Campaign& c = *it->second;
  if (c.state != CampaignState::kDone || c.final_stats == nullptr) {
    throw std::runtime_error("campaign " + std::to_string(id) +
                             " is not DONE (state " +
                             CampaignStateName(c.state) + ")");
  }
  return *c.final_stats;
}

CompactResult CampaignManager::Compact(uint64_t id, const CompactOptions& options) {
  CheckCompactOptions(options);
  std::string corpus_dir;
  bool was_active = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = campaigns_.find(id);
    if (it == campaigns_.end()) {
      throw std::out_of_range("unknown campaign " + std::to_string(id));
    }
    Campaign& c = *it->second;
    corpus_dir = c.spec.corpus_dir;
    if (corpus_dir.empty()) {
      throw std::invalid_argument("compact: campaign " + std::to_string(id) +
                                  " records no durable corpus");
    }
    if (c.state == CampaignState::kPending || c.state == CampaignState::kRunning) {
      // The corpus is only touched between slices; ask for the next
      // sync-batch boundary and wait for it below.
      was_active = true;
      c.pause_requested.store(true);
    }
  }
  if (was_active) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (true) {
      CampaignState state;
      {
        std::lock_guard<std::mutex> lock(mu_);
        state = campaigns_.at(id)->state;
      }
      if (state != CampaignState::kPending && state != CampaignState::kRunning) {
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error(
            "compact: timed out waiting for campaign " + std::to_string(id) +
            " to reach a sync-batch boundary");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  CompactResult result;
  try {
    // A fresh read handle on the corpus: the paused campaign keeps its own
    // open handle, but no worker writes until it is requeued, and the
    // maintenance passes never modify the source directory.
    Corpus source(corpus_dir);
    if (!source.initialized() || !source.has_checkpoint()) {
      throw std::invalid_argument("compact: " + corpus_dir +
                                  " holds no recorded campaign yet");
    }
    const DomainAndConstraint recorded = RecordedDomain(source.meta());
    const DomainSpec& domain = GetDomain(recorded.domain);
    std::unique_ptr<Constraint> constraint =
        MakeDomainConstraint(domain, recorded.constraint);
    std::vector<Model> models = LoadModels(domain.key);
    std::vector<Model*> ptrs;
    ptrs.reserve(models.size());
    for (Model& m : models) {
      ptrs.push_back(&m);
    }
    SessionConfig config = RecordedConfig(source.meta());
    config.workers = 1;
    Session session(ptrs, constraint.get(), config);
    session.SetWorkerPool(compute_pool_.get());

    result = CompactCorpus(session, source, options);
    if (!result.verified) {
      throw std::runtime_error("compact: verification of " + result.out_dir +
                               " failed: " + result.mismatch);
    }
  } catch (...) {
    if (was_active) {
      Resume(id);
    }
    throw;
  }
  if (was_active) {
    result.resumed = Resume(id);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++compactions_total_;
    last_compaction_ = result;
    has_compaction_ = true;
  }
  return result;
}

uint64_t CampaignManager::compactions_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compactions_total_;
}

bool CampaignManager::LastCompaction(CompactResult* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!has_compaction_) {
    return false;
  }
  *out = last_compaction_;
  return true;
}

void CampaignManager::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  for (auto& [id, c] : campaigns_) {
    if (c->state == CampaignState::kPending || c->state == CampaignState::kRunning) {
      c->pause_requested.store(true);
    }
  }
  queue_cv_.notify_all();
  // Workers drain the queue by marking every popped campaign paused; wait
  // until the queue is empty and no slice is executing — at that point every
  // durable campaign has a checkpoint at its last completed batch.
  idle_cv_.wait(lock, [this] { return queue_.empty() && executing_count_ == 0; });
}

bool CampaignManager::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

uint64_t CampaignManager::submitted_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_total_;
}

void CampaignManager::Enqueue(uint64_t id) {
  Campaign& c = *campaigns_.at(id);
  if (!c.queued) {
    c.queued = true;
    queue_.push_back(id);
    queue_cv_.notify_one();
  }
}

void CampaignManager::WorkerLoop() {
  while (true) {
    uint64_t id = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) {
        return;
      }
      id = queue_.front();
      queue_.pop_front();
    }
    RunSlice(id);
  }
}

std::vector<Model> CampaignManager::LoadModels(const std::string& domain_key) {
  std::unique_lock<std::mutex> lock(zoo_mu_);
  auto it = zoo_blobs_.find(domain_key);
  if (it == zoo_blobs_.end()) {
    // First campaign of this domain: train/load through the zoo's (non
    // thread-safe) disk cache under the lock, then keep serialized copies
    // so every later campaign deserializes instead of retraining.
    std::vector<Model> trained = ModelZoo::TrainedDomain(domain_key);
    std::vector<std::string> blobs;
    blobs.reserve(trained.size());
    for (const Model& m : trained) {
      blobs.push_back(m.Serialize());
    }
    zoo_blobs_.emplace(domain_key, std::move(blobs));
    return trained;
  }
  const std::vector<std::string> blobs = it->second;
  lock.unlock();
  std::vector<Model> models;
  models.reserve(blobs.size());
  for (const std::string& blob : blobs) {
    models.push_back(Model::Deserialize(blob));
  }
  return models;
}

void CampaignManager::InitializeLocked(Campaign& c) {
  const CampaignSpec& spec = c.spec;
  const DomainSpec& domain = GetDomain(spec.domain);
  const std::string constraint_key = ResolveDomainConstraint(domain, spec.constraint);
  c.constraint = MakeDomainConstraint(domain, constraint_key);
  c.models = LoadModels(domain.key);
  std::vector<Model*> ptrs;
  ptrs.reserve(c.models.size());
  for (Model& m : c.models) {
    ptrs.push_back(&m);
  }

  if (!spec.corpus_dir.empty()) {
    c.corpus = std::make_unique<Corpus>(spec.corpus_dir);
  }

  SessionConfig config;
  RunOptions opts;
  if (spec.resume) {
    // The recorded manifest decides everything result-affecting, exactly as
    // the CLI's --resume does.
    const CorpusMeta& meta = c.corpus->meta();
    config = RecordedConfig(meta);
    opts = RecordedBounds(meta);
    c.seed_pool = meta.seeds;
  } else {
    config.metric = spec.metric;
    config.objective = spec.objective;
    config.scheduler = spec.scheduler;
    config.engine = domain.engine_defaults;
    config.engine.rng_seed = spec.rng_seed;
    if (spec.max_iterations_per_seed > 0) {
      config.engine.max_iterations_per_seed = spec.max_iterations_per_seed;
    }
    config.sync_interval = spec.sync_interval;
    {
      // The shared datasets are built lazily per process; serialize first
      // touch the same way model training is.
      std::lock_guard<std::mutex> zoo_lock(zoo_mu_);
      const Dataset& test = ModelZoo::TestSet(domain.key);
      for (int i = 0; i < spec.seeds; ++i) {
        c.seed_pool.push_back(test.inputs[static_cast<size_t>(i) % test.size()]);
      }
    }
    opts.max_tests = spec.max_tests;
    opts.max_seed_passes = spec.max_seed_passes;
    opts.coverage_goal = spec.coverage_goal;
  }
  config.batch_size = spec.batch_size;
  config.workers = 1;  // parallelism comes from the shared pool below
  config.profile_phases = true;

  c.session = std::make_unique<Session>(ptrs, c.constraint.get(), config);
  c.session->SetWorkerPool(compute_pool_.get());

  if (c.corpus != nullptr && !c.corpus->initialized()) {
    // Registry keys into the manifest so resume/replay (daemon or CLI)
    // rebuild the exact domain + constraint.
    c.corpus->SetMetadata("domain", domain.key);
    c.corpus->SetMetadata("constraint", constraint_key);
  }

  Campaign* campaign = &c;
  opts.on_batch = [this, campaign](const RunProgress& progress) {
    std::lock_guard<std::mutex> lock(mu_);
    campaign->progress = progress;
  };
  c.run = c.session->BeginRun(c.seed_pool, opts, c.corpus.get());
}

void CampaignManager::RunSlice(uint64_t id) {
  Campaign* c = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = campaigns_.find(id);
    if (it == campaigns_.end()) {
      return;
    }
    c = it->second.get();
    c->queued = false;
    if (c->state == CampaignState::kDone || c->state == CampaignState::kFailed ||
        c->state == CampaignState::kCancelled) {
      idle_cv_.notify_all();
      return;
    }
    if (c->cancel_requested.load()) {
      c->state = CampaignState::kCancelled;
      idle_cv_.notify_all();
      return;
    }
    if (c->pause_requested.load()) {
      c->pause_requested.store(false);
      c->state = CampaignState::kPaused;
      idle_cv_.notify_all();
      return;
    }
    c->state = CampaignState::kRunning;
    c->executing = true;
    ++executing_count_;
  }

  // Execution happens without the manager lock: only this worker touches the
  // campaign's exec state (the queue discipline guarantees exclusivity).
  std::string error;
  bool failed = false;
  try {
    if (c->session == nullptr) {
      InitializeLocked(*c);
    }
    for (int i = 0; i < options_.slice_batches; ++i) {
      if (c->pause_requested.load() || c->cancel_requested.load()) {
        break;
      }
      if (!c->run->Step()) {
        break;
      }
    }
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  }

  RunProgress progress;
  ExecutorProfile profile;
  std::unique_ptr<RunStats> final_stats;
  bool done = false;
  bool have_corpus_stats = false;
  CorpusStats corpus_stats;
  if (!failed && c->run != nullptr) {
    progress = c->run->Progress();
    profile = c->session->ExecutorPhases();
    done = c->run->done();
    if (done) {
      // The run is released below: move its tests out rather than hold a
      // second copy of them while it still lives.
      final_stats = std::make_unique<RunStats>(std::move(*c->run).Snapshot());
    }
    if (c->corpus != nullptr && c->corpus->initialized()) {
      // Cheap in-memory summary, cached for /metrics (which must never touch
      // a campaign's exec state).
      corpus_stats = c->corpus->Stats();
      have_corpus_stats = true;
    }
  }

  bool release_exec = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    c->executing = false;
    --executing_count_;
    if (failed) {
      c->state = CampaignState::kFailed;
      c->error = error;
      release_exec = true;
    } else {
      c->progress = progress;
      c->profile = profile;
      if (have_corpus_stats) {
        c->corpus_stats = corpus_stats;
        c->has_corpus_stats = true;
      }
      if (done) {
        c->state = CampaignState::kDone;
        c->final_stats = std::move(final_stats);
        release_exec = true;
      } else if (c->cancel_requested.load()) {
        c->state = CampaignState::kCancelled;
        release_exec = true;
      } else if (c->pause_requested.load() || draining_) {
        c->pause_requested.store(false);
        c->state = CampaignState::kPaused;
      } else {
        Enqueue(id);
      }
    }
    idle_cv_.notify_all();
  }

  if (release_exec) {
    // Terminal states are never requeued, so no other worker can reach this
    // exec state; free the heavyweight pieces (models, session, corpus).
    c->run.reset();
    c->session.reset();
    c->corpus.reset();
    c->constraint.reset();
    c->models.clear();
    c->seed_pool.clear();
  }
}

}  // namespace dx
