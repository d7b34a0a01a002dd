#include "src/core/session.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/core/executor.h"
#include "src/corpus/corpus.h"
#include "src/corpus/maintenance.h"
#include "src/nn/execution_plan.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "src/util/serialize.h"
#include "src/util/timer.h"

namespace dx {

// SplitMix64 finalizer over (base seed, task index): decorrelated per-task
// RNG streams that depend only on the global task counter.
uint64_t TaskRngSeed(uint64_t rng_seed, uint64_t ordinal) {
  uint64_t z = rng_seed + 0x9e3779b97f4a7c15ULL * (ordinal + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Session::Session(std::vector<Model*> models, const Constraint* constraint,
                 SessionConfig config)
    : models_(std::move(models)),
      constraint_(constraint),
      config_(std::move(config)),
      regression_(false) {
  if (models_.size() < 2) {
    throw std::invalid_argument("Session: differential testing needs >= 2 models");
  }
  if (constraint_ == nullptr) {
    throw std::invalid_argument("Session: constraint must not be null");
  }
  const Shape& input_shape = models_[0]->input_shape();
  const Shape& output_shape = models_[0]->output_shape();
  for (Model* m : models_) {
    if (m->input_shape() != input_shape) {
      throw std::invalid_argument("Session: models disagree on input shape");
    }
    if (m->output_shape() != output_shape) {
      throw std::invalid_argument("Session: models disagree on output shape");
    }
  }
  regression_ = NumElements(output_shape) == 1 &&
                models_[0]->layer(models_[0]->num_layers() - 1).Kind() != "softmax";
  metrics_.reserve(models_.size());
  for (Model* m : models_) {
    metrics_.push_back(MakeCoverageMetric(config_.metric, *m, config_.engine.coverage));
  }
  if (config_.sync_interval < 1) {
    throw std::invalid_argument("Session: sync_interval must be >= 1");
  }
  if (config_.batch_size < 1) {
    throw std::invalid_argument("Session: batch_size must be >= 1");
  }
  if (config_.workers < 0) {
    throw std::invalid_argument("Session: workers must be >= 0 (0 = hardware concurrency)");
  }
  objective_ = MakeObjective(config_.objective);
  scheduler_ = MakeSeedScheduler(config_.scheduler);
  executor_ = std::make_unique<Executor>(models_, constraint_, regression_,
                                         &config_.engine);
  executor_->EnableProfiling(config_.profile_phases);
}

Session::~Session() = default;

std::vector<const Tensor*> TestInputs(const std::vector<GeneratedTest>& tests) {
  std::vector<const Tensor*> inputs;
  inputs.reserve(tests.size());
  for (const GeneratedTest& test : tests) {
    inputs.push_back(&test.input);
  }
  return inputs;
}

bool ModelsDisagree(const Prediction& prediction, float steering_eps) {
  const std::vector<int>& labels = prediction.labels;
  const std::vector<float>& outputs = prediction.outputs;
  if (!outputs.empty()) {
    const auto [lo, hi] = std::minmax_element(outputs.begin(), outputs.end());
    return *hi - *lo > steering_eps;
  }
  return std::any_of(labels.begin(), labels.end(), [&](int l) { return l != labels[0]; });
}

int DeviatingModel(const Prediction& prediction) {
  const std::vector<int>& labels = prediction.labels;
  const std::vector<float>& outputs = prediction.outputs;
  if (!outputs.empty()) {
    double mean = 0.0;
    for (const float v : outputs) {
      mean += v;
    }
    mean /= static_cast<double>(outputs.size());
    int deviator = 0;
    float worst = -1.0f;
    for (size_t k = 0; k < outputs.size(); ++k) {
      const float dev = std::abs(outputs[k] - static_cast<float>(mean));
      if (dev > worst) {
        worst = dev;
        deviator = static_cast<int>(k);
      }
    }
    return deviator;
  }
  for (size_t k = 0; k < labels.size(); ++k) {
    if (std::count(labels.begin(), labels.end(), labels[k]) == 1) {
      return static_cast<int>(k);
    }
  }
  return 0;
}

std::vector<Prediction> Session::Predict(const std::vector<const Tensor*>& inputs) const {
  std::vector<Prediction> predictions(inputs.size());
  for (const Model* model : models_) {
    ExecutionPlan plan = model->Compile(ChunkCapacity(inputs.size(), config_.batch_size));
    plan.ForwardChunks(inputs, [&](size_t begin, const BatchTrace& trace) {
      for (int b = 0; b < trace.batch; ++b) {
        Prediction& p = predictions[begin + static_cast<size_t>(b)];
        if (regression_) {
          p.outputs.push_back(trace.SampleScalar(b));
        } else {
          p.labels.push_back(trace.SampleLabel(b));
        }
      }
    });
  }
  return predictions;
}

std::vector<std::unique_ptr<CoverageMetric>> Session::CloneMetrics() const {
  std::vector<std::unique_ptr<CoverageMetric>> clones;
  clones.reserve(metrics_.size());
  for (const auto& metric : metrics_) {
    clones.push_back(metric->Clone());
  }
  return clones;
}

int Session::EffectiveWorkers() const {
  if (config_.workers > 0) {
    return config_.workers;
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, hw);
}

void Session::ProfileSeeds(const std::vector<Tensor>& seeds) {
  const std::vector<const Tensor*> inputs = SamplePointers(seeds);
  for (int k = 0; k < num_models(); ++k) {
    CoverageMetric& metric = *metrics_[static_cast<size_t>(k)];
    if (!metric.WantsSeedProfile()) {
      continue;
    }
    const Model& model = *models_[static_cast<size_t>(k)];
    // The executor's plan kernels: profiled ranges come from the same
    // activations the campaign later buckets.
    ExecutionPlan plan = model.Compile(ChunkCapacity(seeds.size(), config_.batch_size));
    plan.ForwardChunks(inputs, [&](size_t, const BatchTrace& trace) {
      for (int b = 0; b < trace.batch; ++b) {
        metric.ProfileSeed(model, trace, b);
      }
    });
  }
  profiled_ = true;
}

// Compares one regenerated test against the corpus entry at `index`,
// recording a description of the first divergence.
struct Session::ReplayCursor {
  const Corpus* corpus = nullptr;
  bool ok = true;
  std::string mismatch;

  bool Check(const GeneratedTest& test, size_t index) {
    const auto fail = [&](const std::string& what) {
      ok = false;
      mismatch = "entry " + std::to_string(index) + ": " + what;
      return false;
    };
    const std::vector<GeneratedTest>& entries = corpus->entries();
    if (index >= entries.size()) {
      return fail("replay produced more tests than the corpus records (" +
                  std::to_string(entries.size()) + ")");
    }
    const GeneratedTest& want = entries[index];
    if (test.seed_index != want.seed_index) {
      return fail("seed_index " + std::to_string(test.seed_index) + " != recorded " +
                  std::to_string(want.seed_index));
    }
    if (test.task_ordinal != want.task_ordinal) {
      return fail("task_ordinal " + std::to_string(test.task_ordinal) + " != recorded " +
                  std::to_string(want.task_ordinal));
    }
    if (test.iterations != want.iterations) {
      return fail("iterations " + std::to_string(test.iterations) + " != recorded " +
                  std::to_string(want.iterations));
    }
    if (test.deviating_model != want.deviating_model) {
      return fail("deviating_model " + std::to_string(test.deviating_model) +
                  " != recorded " + std::to_string(want.deviating_model));
    }
    if (test.labels != want.labels) {
      return fail("per-model labels diverge from the recorded predictions");
    }
    if (test.outputs != want.outputs) {
      return fail("per-model outputs diverge from the recorded predictions");
    }
    if (test.input.shape() != want.input.shape() ||
        test.input.values() != want.input.values()) {
      return fail("generated input is not bit-identical to the recorded one");
    }
    return true;
  }
};

RunStats Session::Run(const std::vector<Tensor>& seeds, const RunOptions& options,
                      Corpus* corpus) {
  return RunLoop(seeds, options, corpus, nullptr);
}

ReplayResult Session::Replay(const Corpus& corpus) {
  if (!corpus.initialized() || !corpus.has_checkpoint()) {
    throw std::invalid_argument("Session::Replay: corpus has no recorded campaign");
  }
  if (corpus.meta().FindMetadata("transform") != nullptr) {
    // A maintenance artifact (distilled/deduped/minimized) has no journal to
    // re-execute; it verifies by re-predicting every retained entry and
    // re-deriving the checkpointed coverage state from scratch.
    return VerifyDerivedCorpus(*this, corpus);
  }
  CheckWiring(corpus);
  RunOptions options = RecordedBounds(corpus.meta());
  // Stop exactly where the recorded campaign stopped, complete or not.
  options.max_sync_batches = static_cast<int64_t>(corpus.journal().size());
  // Seed profiling is left to the run, so that its forward passes count
  // toward the replayed forward_passes just as they did when recorded.
  ResetRunState();

  ReplayResult result;
  ReplayCursor cursor;
  cursor.corpus = &corpus;
  result.stats = RunLoop(corpus.meta().seeds, options, nullptr, &cursor);
  result.ok = cursor.ok;
  result.mismatch = std::move(cursor.mismatch);
  if (!result.ok) {
    return result;
  }
  const auto fail = [&](const std::string& what) {
    result.ok = false;
    result.mismatch = what;
  };
  const CorpusCheckpoint& cp = corpus.checkpoint();
  if (result.stats.tests.size() != cp.num_tests) {
    fail("replay found " + std::to_string(result.stats.tests.size()) +
         " difference-inducing inputs, corpus records " + std::to_string(cp.num_tests));
  } else if (result.stats.seeds_tried != cp.seeds_tried ||
             result.stats.seeds_skipped != cp.seeds_skipped ||
             result.stats.total_iterations != cp.total_iterations) {
    fail("replay counters (tried/skipped/iterations) diverge from the checkpoint");
  } else if (result.stats.forward_passes != cp.forward_passes) {
    fail("replay forward passes " + std::to_string(result.stats.forward_passes) +
         " != recorded " + std::to_string(cp.forward_passes));
  } else if (std::string mismatch = StoredStateMismatch(corpus); !mismatch.empty()) {
    fail(mismatch);
  }
  return result;
}

std::string Session::StoredStateMismatch(const Corpus& corpus) const {
  const std::vector<GeneratedTest>& entries = corpus.entries();
  const std::vector<Prediction> predictions = Predict(TestInputs(entries));
  for (size_t i = 0; i < entries.size(); ++i) {
    const GeneratedTest& entry = entries[i];
    const Prediction& p = predictions[i];
    const std::string at = "entry " + std::to_string(i) + ": ";
    if (p.labels != entry.labels || p.outputs != entry.outputs) {
      return at + "stored input no longer reproduces the recorded predictions";
    }
    if (!ModelsDisagree(p, config_.engine.steering_eps)) {
      return at + "the models no longer disagree on the stored input";
    }
    if (DeviatingModel(p) != entry.deviating_model) {
      return at + "deviating_model " + std::to_string(entry.deviating_model) +
             " is not the deviator of the recorded predictions (model " +
             std::to_string(DeviatingModel(p)) + ")";
    }
  }
  const CorpusCheckpoint& cp = corpus.checkpoint();
  if (cp.metric_blobs.size() != metrics_.size()) {
    return "checkpoint holds " + std::to_string(cp.metric_blobs.size()) +
           " coverage snapshots for " + std::to_string(metrics_.size()) + " models";
  }
  // Coverage state must match bit for bit, not just as a percentage.
  for (size_t k = 0; k < metrics_.size(); ++k) {
    std::ostringstream blob;
    BinaryWriter writer(blob);
    metrics_[k]->Serialize(writer);
    if (blob.str() != cp.metric_blobs[k]) {
      return "model " + models_[k]->name() +
             ": coverage state differs from the checkpoint snapshot";
    }
  }
  return "";
}

void Session::CheckWiring(const Corpus& corpus) const {
  const CorpusMeta& meta = corpus.meta();
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument("Session: corpus " + corpus.dir() +
                                " does not match this session: " + what);
  };
  if (meta.metric != config_.metric || meta.objective != config_.objective ||
      meta.scheduler != config_.scheduler) {
    fail("metric/objective/scheduler wiring differs");
  }
  if (meta.constraint != constraint_->name()) {
    fail("constraint is " + constraint_->name() + ", corpus recorded " + meta.constraint);
  }
  if (meta.engine.coverage != config_.engine.coverage) {
    fail("coverage options differ");
  }
  if (meta.engine != config_.engine) {
    fail("engine hyperparameters differ");
  }
  if (meta.sync_interval != config_.sync_interval) {
    fail("sync_interval differs");
  }
  if (meta.model_names.size() != models_.size()) {
    fail("model count differs");
  }
  for (size_t k = 0; k < models_.size(); ++k) {
    if (meta.model_names[k] != models_[k]->name()) {
      fail("model " + std::to_string(k) + " is " + models_[k]->name() +
           ", corpus recorded " + meta.model_names[k]);
    }
  }
}

void Session::ValidateCorpus(const Corpus& corpus, const std::vector<Tensor>& seeds,
                             const RunOptions& options) const {
  const CorpusMeta& meta = corpus.meta();
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument("Session: corpus " + corpus.dir() +
                                " does not match this session: " + what);
  };
  if (const std::string* transform = meta.FindMetadata("transform")) {
    fail("corpus is a derived maintenance artifact (transform=" + *transform +
         ") — derived corpora replay for verification but never resume");
  }
  CheckWiring(corpus);
  if (meta.max_tests != options.max_tests ||
      meta.max_seed_passes != options.max_seed_passes ||
      meta.coverage_goal != options.coverage_goal) {
    fail("campaign bounds (max_tests/max_seed_passes/coverage_goal) differ");
  }
  if (meta.seeds.size() != seeds.size()) {
    fail("seed pool size differs");
  }
  for (size_t i = 0; i < seeds.size(); ++i) {
    if (meta.seeds[i].shape() != seeds[i].shape() ||
        meta.seeds[i].values() != seeds[i].values()) {
      fail("seed " + std::to_string(i) + " is not bit-identical to the recorded pool");
    }
  }
}

void Session::RestoreFromCheckpoint(const Corpus& corpus, const std::vector<Tensor>& seeds,
                                    const RunOptions& options, RunStats* stats) {
  const CorpusCheckpoint& cp = corpus.checkpoint();
  if (cp.metric_blobs.size() != metrics_.size()) {
    throw std::runtime_error("Session: checkpoint has " +
                             std::to_string(cp.metric_blobs.size()) +
                             " coverage snapshots for " + std::to_string(metrics_.size()) +
                             " models");
  }
  for (size_t k = 0; k < metrics_.size(); ++k) {
    std::istringstream blob(cp.metric_blobs[k]);
    BinaryReader reader(blob);
    metrics_[k]->Deserialize(reader);
  }
  // Profiling state (k-multisection ranges) is part of the snapshot; a
  // resumed run must not re-profile, or forward_passes would double-count.
  profiled_ = true;

  // The journal replays the exact Next()/Report() stream the scheduler saw,
  // reconstructing its state without requiring schedulers to serialize.
  scheduler_->Reset(static_cast<int>(seeds.size()), options.max_seed_passes);
  for (const auto& batch : corpus.journal()) {
    for (const auto& record : batch) {
      const int index = scheduler_->Next();
      if (index != record.seed_index) {
        throw std::runtime_error(
            "Session: corpus journal does not replay through scheduler '" +
            scheduler_->name() + "' (got seed " + std::to_string(index) + ", recorded " +
            std::to_string(record.seed_index) + ") — corpus/config mismatch?");
      }
    }
    for (const auto& record : batch) {
      scheduler_->Report(record.seed_index, record.found, record.gain);
    }
  }

  stats->tests = corpus.entries();
  stats->seeds_tried = cp.seeds_tried;
  stats->seeds_skipped = cp.seeds_skipped;
  stats->total_iterations = cp.total_iterations;
}

void Session::ResetRunState() {
  for (size_t k = 0; k < models_.size(); ++k) {
    metrics_[k] = MakeCoverageMetric(config_.metric, *models_[k], config_.engine.coverage);
  }
  profiled_ = false;
}

void Session::ResetForCorpus(const Corpus& corpus) {
  CheckWiring(corpus);
  ResetRunState();
  ProfileSeeds(corpus.meta().seeds);
}

RunStats Session::RunLoop(const std::vector<Tensor>& seeds, const RunOptions& options,
                          Corpus* corpus, ReplayCursor* replay) {
  // All run state lives in the SessionRun; this loop (like any other caller
  // that steps one) just applies the per-leg bounds.
  SessionRun run(this, &seeds, options, corpus, replay);
  int64_t leg_batches = 0;
  while (!run.done() && run.active_seconds() <= options.max_seconds &&
         leg_batches < options.max_sync_batches && run.Step()) {
    ++leg_batches;
  }
  return std::move(run).Snapshot();
}

std::unique_ptr<SessionRun> Session::BeginRun(const std::vector<Tensor>& seeds,
                                              const RunOptions& options,
                                              Corpus* corpus) {
  return std::unique_ptr<SessionRun>(
      new SessionRun(this, &seeds, options, corpus, nullptr));
}

SessionRun::SessionRun(Session* session, const std::vector<Tensor>* seeds,
                       RunOptions options, Corpus* corpus,
                       Session::ReplayCursor* replay)
    : session_(session),
      seeds_(seeds),
      options_(std::move(options)),
      corpus_(corpus),
      replay_(replay) {
  Session& s = *session_;
  Timer timer;
  for (const Model* m : s.models_) {
    forward_base_ += m->forward_passes();
  }

  bool resumed = false;
  if (corpus_ != nullptr) {
    if (corpus_->initialized()) {
      s.ValidateCorpus(*corpus_, *seeds_, options_);
    } else {
      CorpusMeta meta;
      meta.metric = s.config_.metric;
      meta.objective = s.config_.objective;
      meta.scheduler = s.config_.scheduler;
      meta.constraint = s.constraint_->name();
      meta.engine = s.config_.engine;
      meta.sync_interval = s.config_.sync_interval;
      meta.max_tests = options_.max_tests;
      meta.max_seed_passes = options_.max_seed_passes;
      meta.coverage_goal = options_.coverage_goal;
      for (const Model* m : s.models_) {
        meta.model_names.push_back(m->name());
      }
      meta.seeds = *seeds_;
      corpus_->Initialize(std::move(meta));
    }
    if (corpus_->has_checkpoint()) {
      s.RestoreFromCheckpoint(*corpus_, *seeds_, options_, &stats_);
      const CorpusCheckpoint& cp = corpus_->checkpoint();
      task_counter_ = cp.task_counter;
      forward_offset_ = cp.forward_passes;
      batches_ = corpus_->journal().size();
      resumed = true;
      if (cp.complete) {
        // Nothing left to run: the recorded campaign is reported as-is.
        done_ = true;
      }
    }
  }

  if (!resumed) {
    if (!s.profiled_) {
      s.ProfileSeeds(*seeds_);
    }
    s.scheduler_->Reset(static_cast<int>(seeds_->size()), options_.max_seed_passes);
  }
  active_seconds_ += timer.ElapsedSeconds();
}

SessionRun::~SessionRun() {
  if (corpus_ != nullptr) {
    try {
      // Make the leg's final checkpoint durable as a snapshot so a clean
      // shutdown (drain, leg bound, cancel) never loses the batches held
      // only in memory.
      corpus_->Sync();
    } catch (...) {
      // Destructors must not throw; checkpoints.bin still holds the
      // previous snapshot, so a resume just re-executes a few more batches.
    }
  }
}

bool SessionRun::Step() {
  if (done_) {
    return false;
  }
  Session& s = *session_;
  const std::vector<Tensor>& seeds = *seeds_;
  Timer timer;

  ThreadPool* pool = s.external_pool_;
  int workers;
  if (pool != nullptr) {
    // Shared-pool mode: the pool's size, not config().workers, is the
    // parallelism (ParallelFor adds the calling thread as one worker).
    workers = pool->num_threads() + 1;
  } else {
    workers = s.EffectiveWorkers();
    if (workers > 1 &&
        (s.pool_ == nullptr || s.pool_->num_threads() != workers - 1)) {
      // ParallelFor runs on the pool's threads plus the calling thread, so a
      // session with W workers owns W-1 pool threads.
      s.pool_ = std::make_unique<ThreadPool>(workers - 1);
    }
    pool = s.pool_.get();
  }
  const int sync_interval = s.config_.sync_interval;

  std::vector<int> batch;
  batch.reserve(static_cast<size_t>(sync_interval));
  while (static_cast<int>(batch.size()) < sync_interval) {
    const int index = s.scheduler_->Next();
    if (index < 0) {
      break;
    }
    batch.push_back(index);
    // Sync at pass boundaries so the scheduler has every outcome of the
    // finished pass reported before it orders the next one. The cut
    // depends only on counts, so worker-count invariance is preserved.
    if ((task_counter_ + batch.size()) % seeds.size() == 0) {
      break;
    }
  }
  if (batch.empty()) {
    // Scheduler ran dry: the campaign is complete — re-stamp the last
    // checkpoint so a later resume is a no-op instead of spinning the
    // scheduler again.
    done_ = true;
    if (corpus_ != nullptr && corpus_->has_checkpoint() &&
        !corpus_->checkpoint().complete) {
      CorpusCheckpoint cp = corpus_->checkpoint();
      cp.complete = true;
      corpus_->WriteCheckpoint(cp);
    }
    active_seconds_ += timer.ElapsedSeconds();
    // Final notification: every run's last on_batch reports done == true,
    // whichever way the campaign terminated.
    if (options_.on_batch) {
      options_.on_batch(Progress());
    }
    return false;
  }

  // Every task keeps its own RNG stream and tracker clones, and the whole
  // batch goes to one executor Run: its drainers (at most one per
  // `batch_size` tasks, and at most one per worker) step up to `batch_size`
  // rows at a time. Which rows share a step, and which drainer runs a row,
  // cannot change any task's values, so results stay invariant to both
  // knobs.
  const size_t n = batch.size();
  std::vector<Rng> task_rngs;
  task_rngs.reserve(n);
  std::vector<std::vector<std::unique_ptr<CoverageMetric>>> task_metrics(n);
  std::vector<Executor::SeedTask> tasks(n);
  for (size_t t = 0; t < n; ++t) {
    task_rngs.emplace_back(TaskRngSeed(s.config_.engine.rng_seed,
                                       task_counter_ + static_cast<uint64_t>(t)));
    task_metrics[t] = s.CloneMetrics();
    Executor::SeedTask& task = tasks[t];
    task.seed = &seeds[static_cast<size_t>(batch[t])];
    task.seed_index = batch[t];
    task.ordinal = task_counter_ + static_cast<uint64_t>(t);
    task.rng = &task_rngs[t];
    task.metrics = &task_metrics[t];
  }
  const int width = s.config_.batch_size;
  const int drainers =
      std::min(workers, static_cast<int>((n + static_cast<size_t>(width) - 1) / width));
  std::vector<std::optional<GeneratedTest>> outcomes =
      s.executor_->Run(tasks, *s.objective_, width, drainers, pool);
  task_counter_ += n;

  // Merge + report in schedule order: deterministic for any worker count.
  // The journal mirrors the Report stream so a resumed (or replayed)
  // campaign can reconstruct the scheduler exactly.
  std::vector<CorpusCheckpoint::JournalRecord> journal_batch;
  journal_batch.reserve(n);
  const size_t tests_before = stats_.tests.size();
  for (size_t t = 0; t < n && !done_; ++t) {
    std::optional<GeneratedTest>& test = outcomes[t];
    ++stats_.seeds_tried;
    if (!test.has_value()) {
      ++stats_.seeds_skipped;
      s.scheduler_->Report(batch[t], false, 0.0f);
      journal_batch.push_back({batch[t], false, 0.0f});
      continue;
    }
    if (replay_ != nullptr && !replay_->Check(*test, stats_.tests.size())) {
      --stats_.seeds_tried;  // Divergence: abort before counting this task.
      done_ = true;
      break;
    }
    const float before = s.MeanCoverage();
    for (int k = 0; k < s.num_models(); ++k) {
      s.metrics_[static_cast<size_t>(k)]->Merge(*task_metrics[t][static_cast<size_t>(k)]);
    }
    const float gain = s.MeanCoverage() - before;
    s.scheduler_->Report(batch[t], true, gain);
    journal_batch.push_back({batch[t], true, gain});
    stats_.total_iterations += test->iterations;
    stats_.tests.push_back(std::move(*test));
    if (static_cast<int>(stats_.tests.size()) >= options_.max_tests) {
      done_ = true;
      break;
    }
    if (options_.coverage_goal <= 1.0f) {
      bool all_reached = true;
      for (const auto& metric : s.metrics_) {
        all_reached = all_reached && metric->Coverage() >= options_.coverage_goal;
      }
      if (all_reached) {
        done_ = true;
      }
    }
  }
  ++batches_;

  if (corpus_ != nullptr) {
    for (size_t i = tests_before; i < stats_.tests.size(); ++i) {
      corpus_->AppendEntry(stats_.tests[i]);
    }
    corpus_->AppendJournalBatch(journal_batch);
    CorpusCheckpoint cp;
    cp.complete = done_;
    cp.task_counter = task_counter_;
    cp.seeds_tried = stats_.seeds_tried;
    cp.seeds_skipped = stats_.seeds_skipped;
    cp.total_iterations = stats_.total_iterations;
    cp.forward_passes = CumulativeForwardPasses();
    cp.num_tests = stats_.tests.size();
    cp.num_batches = corpus_->journal().size();
    cp.mean_coverage = s.MeanCoverage();
    for (const auto& metric : s.metrics_) {
      std::ostringstream blob;
      BinaryWriter writer(blob);
      metric->Serialize(writer);
      cp.metric_blobs.push_back(blob.str());
    }
    corpus_->WriteCheckpoint(cp);
  }

  active_seconds_ += timer.ElapsedSeconds();
  if (options_.on_batch) {
    options_.on_batch(Progress());
  }
  return true;
}

int64_t SessionRun::CumulativeForwardPasses() const {
  int64_t forwards = forward_offset_ - forward_base_;
  for (const Model* m : session_->models_) {
    forwards += m->forward_passes();
  }
  return forwards;
}

RunStats SessionRun::Snapshot() const& {
  RunStats stats = stats_;
  stats.seconds = active_seconds_;
  stats.mean_coverage = session_->MeanCoverage();
  stats.forward_passes = CumulativeForwardPasses();
  return stats;
}

RunStats SessionRun::Snapshot() && {
  std::vector<GeneratedTest> tests = std::move(stats_.tests);
  stats_.tests.clear();
  RunStats stats = Snapshot();
  stats.tests = std::move(tests);
  return stats;
}

RunProgress SessionRun::Progress() const {
  RunProgress progress;
  progress.batches = batches_;
  progress.seeds_tried = stats_.seeds_tried;
  progress.seeds_skipped = stats_.seeds_skipped;
  progress.tests_found = static_cast<int>(stats_.tests.size());
  progress.total_iterations = stats_.total_iterations;
  progress.forward_passes = CumulativeForwardPasses();
  progress.mean_coverage = session_->MeanCoverage();
  progress.seconds = active_seconds_;
  progress.done = done_;
  return progress;
}

ExecutorProfile Session::ExecutorPhases() const { return executor_->profile(); }

float Session::MeanCoverage() const {
  double sum = 0.0;
  for (const auto& metric : metrics_) {
    sum += metric->Coverage();
  }
  return static_cast<float>(sum / static_cast<double>(metrics_.size()));
}

}  // namespace dx
