// dxplore: command-line driver for the test-generation Session engine.
//
//   dxplore --domain KEY   (any registered domain; see --list-domains)
//           [--metric neuron|kmultisection|topk] [--objective joint|...]
//           [--scheduler roundrobin|coverage-gain] [--workers N]
//           [--constraint NAME]  (per-domain; "default" = domain default)
//           [--seeds N] [--max-tests N] [--lambda1 F] [--lambda2 F]
//           [--step F] [--threshold F] [--iters N] [--target MODEL_IDX]
//           [--rng-seed N] [--out DIR] [--list]
//
// Every axis is a string-keyed registry: domains (src/core/domain.h) bundle
// the dataset, the model trio, the constraint variants, and the Table-2
// defaults; metrics/objectives/schedulers plug into the Session. The CLI
// performs registry lookups only — registering a new domain makes it
// available here with no CLI change.
//
// Loads (or trains+caches) the domain's models, wires a Session from the
// selected coverage metric / objective / seed scheduler, runs it over N
// test-set seeds on the requested number of parallel workers, prints a run
// report, and optionally dumps every difference-inducing image to DIR as
// PGM/PPM.
//
// Durable campaigns: --corpus-dir DIR records every difference-inducing
// input (with provenance), the scheduler journal, and per-batch coverage
// checkpoints; --resume continues an interrupted campaign from its last
// checkpoint (config and seeds come from the corpus manifest, so only
// --corpus-dir is needed); --replay re-executes the recorded campaign and
// verifies bit-identical results (exit 0 verified, 3 diverged). The corpus
// manifest records the domain and constraint *registry keys*, so resume and
// replay reconstruct models and constraints through the registry — a
// manifest whose keys are no longer registered fails with a clear
// "unknown domain 'X'; registered: ..." error (exit 2), never a crash or a
// silent default.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "src/constraints/constraint.h"
#include "src/core/domain.h"
#include "src/core/executor.h"
#include "src/core/objective.h"
#include "src/core/seed_scheduler.h"
#include "src/core/session.h"
#include "src/corpus/corpus.h"
#include "src/corpus/dedup.h"
#include "src/corpus/distill.h"
#include "src/corpus/minimize.h"
#include "src/coverage/coverage_metric.h"
#include "src/service/client.h"
#include "src/models/trainer.h"
#include "src/models/zoo.h"
#include "src/tensor/simd.h"
#include "src/util/image_io.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace {

using namespace dx;

std::string Join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    out += (out.empty() ? "" : " | ") + name;
  }
  return out;
}

// ---- Strict numeric flag parsing ---------------------------------------------------------
//
// std::atof/atoi return 0 on garbage, so a typo like `--step 0.O1` used to
// run a full campaign with step=0 instead of failing. Every numeric flag
// goes through these helpers: the whole value must parse (no trailing
// junk), fit the target type, and — for floats — be finite. Anything else
// exits 2 naming the flag and the offending value.

[[noreturn]] void BadFlagValue(const std::string& flag, const char* value,
                               const char* expected) {
  std::cerr << "invalid value for " << flag << ": \"" << value << "\" (expected "
            << expected << ")\n";
  std::exit(2);
}

float ParseFloatFlag(const std::string& flag, const char* value) {
  float out = 0.0f;
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, out);
  if (ec != std::errc{} || ptr != end || !std::isfinite(out)) {
    BadFlagValue(flag, value, "a finite number");
  }
  return out;
}

int64_t ParseInt64Flag(const std::string& flag, const char* value) {
  int64_t out = 0;
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, out, 10);
  if (ec != std::errc{} || ptr != end) {
    BadFlagValue(flag, value, "an integer");
  }
  return out;
}

int ParseIntFlag(const std::string& flag, const char* value) {
  const int64_t out = ParseInt64Flag(flag, value);
  if (out < std::numeric_limits<int>::min() || out > std::numeric_limits<int>::max()) {
    BadFlagValue(flag, value, "a 32-bit integer");
  }
  return static_cast<int>(out);
}

uint64_t ParseUint64Flag(const std::string& flag, const char* value) {
  uint64_t out = 0;
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, out, 10);
  if (ec != std::errc{} || ptr != end) {
    BadFlagValue(flag, value, "an unsigned integer");
  }
  return out;
}

// Build/runtime provenance for perf reports: which SIMD backend the kernels
// were compiled for, and how wide the intra-op pool is on this host.
void PrintVersion() {
  std::cout << "dxplore (DeepXplore reproduction, conf_sosp_PeiCYJ17)\n"
            << "  simd backend: " << SimdBackendName() << " (" << SimdLanes()
            << " float lanes)\n"
            << "  intra-op threads: " << ThreadPool::Global().num_threads()
            << " (DEEPXPLORE_THREADS overrides; host cores: "
            << std::thread::hardware_concurrency() << ")\n";
}

[[noreturn]] void Usage(int code) {
  std::cout <<
      R"(dxplore - whitebox differential testing of the built-in model zoo

  --domain D      )" << Join(DomainKeys()) << R"(  (required)
  --metric M      )" << Join(CoverageMetricNames()) << R"(  (default: neuron)
  --objective O   )" << Join(ObjectiveNames()) << R"(  (default: joint)
  --scheduler S   )" << Join(SeedSchedulerNames()) << R"(  (default: roundrobin)
  --workers N     parallel seed workers; 0 = all cores        (default: 1)
  --batch-size N  most seeds one executor step holds          (default: 8)
  --constraint C  per-domain constraint variant; "default" picks the
                  domain's default (--list-domains enumerates them)
  --seeds N       seed inputs drawn from the domain test set  (default: 100)
  --max-tests N   stop after N difference-inducing inputs     (default: all)
  --lambda1 F     Equation 2 balance                          (default: Table 2)
  --lambda2 F     coverage objective weight                   (default: Table 2)
  --step F        gradient-ascent step size                   (default: Table 2)
  --threshold F   neuron activation threshold t               (default: 0)
  --iters N       gradient steps per seed                     (default: 100)
  --target K      force model K as the deviator               (default: random)
  --rng-seed N    engine RNG seed                             (default: 1234)
  --out DIR       write difference-inducing images to DIR
  --corpus-dir D  record the campaign durably into corpus directory D
  --resume        continue the campaign in --corpus-dir from its checkpoint
                  (config + seeds are read from the corpus manifest)
  --replay        re-execute the campaign in --corpus-dir and verify the
                  recorded results bit for bit (exit 0 ok, 3 diverged)
  --max-batches N stop this leg after N sync batches (resumable later)
  --progress N    print a progress line every N sync batches (stderr)
  --profile       print a per-phase wall-time table after the run (stack /
                  forward / backward layers / objective accumulate /
                  constraint / coverage)
  --list          print the model zoo and exit
  --version       print build provenance (SIMD backend, intra-op threads)
  --list-domains     print registered domains (models, constraints) and exit
  --list-metrics     print registered coverage metrics and exit
  --list-objectives  print registered objectives and exit
  --list-schedulers  print registered seed schedulers and exit

Results are deterministic for a fixed --rng-seed, whatever --workers or
--batch-size is.

`dxplore ctl COMMAND ...` drives a running dxplored campaign daemon
(submit/status/list/pause/resume/cancel/results/wait/drain/get; see
`dxplore ctl --help`).

`dxplore corpus stats|distill|dedup|minimize ...` maintains recorded
corpora (see `dxplore corpus --help`).
)";
  std::exit(code);
}

[[noreturn]] void CorpusUsage(int code) {
  std::cout <<
      R"(dxplore corpus - maintenance passes over a recorded corpus

  dxplore corpus stats    --corpus-dir DIR
  dxplore corpus distill  --corpus-dir SRC --out DST
  dxplore corpus dedup    --corpus-dir SRC --out DST [--deduper NAME]
                          [--dedup-threshold F] [--no-preserve-coverage]
  dxplore corpus minimize --corpus-dir SRC --out DST [--regions N] [--rounds N]

  --workers N / --batch-size N apply to every transform (results are
  invariant to both).

stats summarizes the corpus (entries, per-model attribution, on-disk bytes,
checkpoint state) without loading models or writing anything.

Transforms write a NEW derived corpus to --out (the source is never modified
in place), then verify it with Session::Replay: every retained entry must
re-predict its recorded labels/outputs and still induce disagreement, and
the checkpoint's merged coverage must re-derive bit-identically (exit 0
verified, 3 verification failed). Derived corpora replay but never resume.

  distill   drop entries whose coverage is subsumed by the retained set
            (merged coverage is preserved exactly)
  dedup     drop near-duplicate inputs with the same disagreement signature;
            dedupers: )" << Join(CorpusDeduperNames()) << R"(
            (a duplicate that still covers something new is kept unless
            --no-preserve-coverage)
  minimize  walk each entry's input back toward its seed while the
            disagreement and the corpus' merged coverage survive
)";
  std::exit(code);
}

int CorpusMain(int argc, char** argv) {
  if (argc < 1) {
    CorpusUsage(2);
  }
  const std::string verb = argv[0];
  if (verb == "--help" || verb == "-h") {
    CorpusUsage(0);
  }
  if (verb != "stats" && verb != "distill" && verb != "dedup" && verb != "minimize") {
    std::cerr << "unknown corpus verb \"" << verb << "\"\n";
    CorpusUsage(2);
  }
  std::string corpus_dir;
  std::string out_dir;
  std::string deduper = "auto";
  float dedup_threshold = -1.0f;
  int regions = 16;
  int rounds = 4;
  int workers = 1;
  int batch_size = 8;
  bool preserve_coverage = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        CorpusUsage(2);
      }
      return argv[++i];
    };
    if (arg == "--corpus-dir") corpus_dir = next();
    else if (arg == "--out") out_dir = next();
    else if (arg == "--deduper") deduper = next();
    else if (arg == "--dedup-threshold") dedup_threshold = ParseFloatFlag(arg, next());
    else if (arg == "--regions") regions = ParseIntFlag(arg, next());
    else if (arg == "--rounds") rounds = ParseIntFlag(arg, next());
    else if (arg == "--workers") workers = ParseIntFlag(arg, next());
    else if (arg == "--batch-size") batch_size = ParseIntFlag(arg, next());
    else if (arg == "--no-preserve-coverage") preserve_coverage = false;
    else if (arg == "--help" || arg == "-h") CorpusUsage(0);
    else {
      std::cerr << "unknown flag: " << arg << "\n";
      CorpusUsage(2);
    }
  }
  if (corpus_dir.empty()) {
    std::cerr << "missing --corpus-dir\n";
    return 2;
  }
  Corpus corpus(corpus_dir);
  if (!corpus.initialized()) {
    std::cerr << corpus_dir << " holds no recorded campaign\n";
    return 2;
  }

  if (verb == "stats") {
    const CorpusStats s = corpus.Stats();
    TablePrinter table({"Stat", "Value"});
    table.AddRow({"directory", corpus_dir});
    if (!s.domain.empty()) table.AddRow({"domain", s.domain});
    table.AddRow({"metric", s.metric});
    table.AddRow({"objective", s.objective});
    table.AddRow({"scheduler", s.scheduler});
    if (const std::string* transform = corpus.meta().FindMetadata("transform")) {
      table.AddRow({"transform", *transform});
    }
    table.AddRow({"entries", std::to_string(s.num_entries)});
    const std::vector<std::string>& names = corpus.meta().model_names;
    for (size_t k = 0; k < s.entries_per_model.size(); ++k) {
      table.AddRow({"entries deviating " + (k < names.size() ? names[k] : std::to_string(k)),
                    std::to_string(s.entries_per_model[k])});
    }
    table.AddRow({"seeds", std::to_string(s.num_seeds)});
    table.AddRow({"journal batches", std::to_string(s.journal_batches)});
    table.AddRow({"chain snapshots", std::to_string(s.chain_snapshots)});
    table.AddRow({"complete", s.complete ? "yes" : "no (resumable)"});
    table.AddRow({"mean coverage", TablePrinter::Percent(s.mean_coverage)});
    table.AddRow({"manifest bytes", std::to_string(s.manifest_bytes)});
    table.AddRow({"entries bytes", std::to_string(s.entries_bytes)});
    table.AddRow({"journal bytes", std::to_string(s.journal_bytes)});
    table.AddRow({"checkpoint bytes", std::to_string(s.checkpoint_bytes)});
    table.AddRow({"total bytes", std::to_string(s.total_bytes)});
    std::cout << table.ToString();
    return 0;
  }

  if (out_dir.empty()) {
    std::cerr << "missing --out (transforms write a new derived corpus)\n";
    return 2;
  }
  if (!corpus.has_checkpoint()) {
    std::cerr << corpus_dir << " has no checkpoint to transform\n";
    return 2;
  }
  // The same registry-keyed reconstruction --resume/--replay use.
  const DomainAndConstraint recorded = RecordedDomain(corpus.meta());
  const DomainSpec& domain = GetDomain(recorded.domain);
  std::unique_ptr<Constraint> constraint = MakeDomainConstraint(domain, recorded.constraint);
  std::cerr << "loading models (trains and caches on first use)...\n";
  std::vector<Model> models = ModelZoo::TrainedDomain(domain.key);
  std::vector<Model*> ptrs;
  for (Model& m : models) {
    ptrs.push_back(&m);
  }
  SessionConfig config = RecordedConfig(corpus.meta());
  config.workers = workers;
  config.batch_size = batch_size;
  Session session(ptrs, constraint.get(), config);

  MaintenanceReport report;
  if (verb == "distill") {
    DistillOptions options;
    options.out_dir = out_dir;
    report = DistillCorpus(session, corpus, options);
  } else if (verb == "dedup") {
    DedupOptions options;
    options.out_dir = out_dir;
    options.deduper = deduper;
    options.threshold = dedup_threshold;
    options.preserve_coverage = preserve_coverage;
    report = DedupCorpus(session, corpus, options);
  } else {
    MinimizeOptions options;
    options.out_dir = out_dir;
    options.regions = regions;
    options.max_rounds = rounds;
    report = MinimizeCorpus(session, corpus, options);
  }
  std::cout << report.ToString();

  // Every transform is verified end to end before the CLI calls it done.
  Corpus derived(out_dir);
  const ReplayResult verify = session.Replay(derived);
  if (!verify.ok) {
    std::cerr << "verification FAILED: " << verify.mismatch << "\n";
    return 3;
  }
  std::cout << "verified: " << derived.entries().size()
            << " entries replay clean in " << out_dir << "\n";
  return 0;
}

void DumpImage(const std::string& path, const Tensor& img) {
  if (img.ndim() != 3) {
    return;  // Feature-vector domains have no image form.
  }
  const int c = img.dim(0);
  const int h = img.dim(1);
  const int w = img.dim(2);
  if (c != 1 && c != 3) {
    return;
  }
  std::vector<float> hwc(static_cast<size_t>(h) * w * c);
  for (int ch = 0; ch < c; ++ch) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        hwc[(static_cast<size_t>(y) * w + x) * c + ch] =
            img[(static_cast<int64_t>(ch) * h + y) * w + x];
      }
    }
  }
  WriteImage(path + (c == 1 ? ".pgm" : ".ppm"), hwc, h, w, c);
}

int Main(int argc, char** argv) {
  std::string domain_name;
  std::string constraint_name = "default";
  std::string metric_name = "neuron";
  std::string objective_name = "joint";
  std::string scheduler_name = "roundrobin";
  std::string out_dir;
  std::string corpus_dir;
  int seeds = 100;
  int max_tests = 1 << 30;
  int iters = 100;
  int target = -1;
  int workers = 1;
  int batch_size = 8;
  int64_t max_batches = -1;
  int64_t progress_every = 0;
  uint64_t rng_seed = 1234;
  float threshold = 0.0f;
  std::optional<float> lambda1;
  std::optional<float> lambda2;
  std::optional<float> step;
  bool list = false;
  bool resume = false;
  bool replay = false;
  bool profile = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(2);
      }
      return argv[++i];
    };
    if (arg == "--domain") domain_name = next();
    else if (arg == "--constraint") constraint_name = next();
    else if (arg == "--metric") metric_name = next();
    else if (arg == "--objective") objective_name = next();
    else if (arg == "--scheduler") scheduler_name = next();
    else if (arg == "--workers") workers = ParseIntFlag(arg, next());
    else if (arg == "--batch-size") batch_size = ParseIntFlag(arg, next());
    else if (arg == "--rng-seed") rng_seed = ParseUint64Flag(arg, next());
    else if (arg == "--seeds") seeds = ParseIntFlag(arg, next());
    else if (arg == "--max-tests") max_tests = ParseIntFlag(arg, next());
    else if (arg == "--lambda1") lambda1 = ParseFloatFlag(arg, next());
    else if (arg == "--lambda2") lambda2 = ParseFloatFlag(arg, next());
    else if (arg == "--step") step = ParseFloatFlag(arg, next());
    else if (arg == "--threshold") threshold = ParseFloatFlag(arg, next());
    else if (arg == "--iters") iters = ParseIntFlag(arg, next());
    else if (arg == "--target") target = ParseIntFlag(arg, next());
    else if (arg == "--out") out_dir = next();
    else if (arg == "--corpus-dir") corpus_dir = next();
    else if (arg == "--resume") resume = true;
    else if (arg == "--replay") replay = true;
    else if (arg == "--max-batches") max_batches = ParseInt64Flag(arg, next());
    else if (arg == "--progress") progress_every = ParseInt64Flag(arg, next());
    else if (arg == "--profile") profile = true;
    else if (arg == "--list") list = true;
    else if (arg == "--list-domains") {
      TablePrinter table({"Key", "Dataset", "Models", "Constraints", "Description"});
      for (const std::string& key : DomainKeys()) {
        const DomainSpec& spec = GetDomain(key);
        std::vector<std::string> constraints;
        for (const std::string& name : DomainConstraintNames(spec)) {
          constraints.push_back(name == spec.default_constraint ? name + "*" : name);
        }
        table.AddRow({spec.key, spec.display_name,
                      std::to_string(spec.models.size()), Join(constraints),
                      spec.description});
      }
      std::cout << table.ToString() << "(* = the domain's default constraint)\n";
      return 0;
    }
    else if (arg == "--list-metrics") {
      for (const std::string& name : CoverageMetricNames()) std::cout << name << "\n";
      return 0;
    }
    else if (arg == "--list-objectives") {
      for (const std::string& name : ObjectiveNames()) std::cout << name << "\n";
      return 0;
    }
    else if (arg == "--list-schedulers") {
      for (const std::string& name : SeedSchedulerNames()) std::cout << name << "\n";
      return 0;
    }
    else if (arg == "--version") {
      PrintVersion();
      return 0;
    }
    else if (arg == "--help" || arg == "-h") Usage(0);
    else {
      std::cerr << "unknown flag: " << arg << "\n";
      Usage(2);
    }
  }

  if (list) {
    TablePrinter table({"Name", "Dataset", "Architecture"});
    for (const ModelInfo& info : ZooModels()) {
      table.AddRow({info.name, DomainName(info.domain), info.arch});
    }
    std::cout << table.ToString();
    return 0;
  }
  if ((resume || replay) && corpus_dir.empty()) {
    std::cerr << "--resume/--replay require --corpus-dir\n";
    return 2;
  }
  if (resume && replay) {
    std::cerr << "--resume and --replay are mutually exclusive\n";
    return 2;
  }
  if (replay && max_batches >= 0) {
    std::cerr << "--max-batches does not apply to --replay (the recorded leg "
                 "boundary is replayed exactly)\n";
    return 2;
  }
  std::unique_ptr<Corpus> corpus;
  if (!corpus_dir.empty()) {
    corpus = std::make_unique<Corpus>(corpus_dir);
    if ((resume || replay) && !corpus->initialized()) {
      std::cerr << corpus_dir << " holds no recorded campaign\n";
      return 2;
    }
    if (!resume && !replay && corpus->initialized()) {
      std::cerr << corpus_dir
                << " already holds a campaign; pass --resume to continue it or "
                   "--replay to verify it\n";
      return 2;
    }
  }
  if (resume || replay) {
    // The corpus manifest is the source of truth for everything that affects
    // results; only --workers / --batch-size / --max-batches apply (results
    // are invariant to them). The stored domain/constraint registry keys are
    // resolved below — through the same registry lookups as fresh runs.
    DomainAndConstraint recorded = RecordedDomain(corpus->meta());
    domain_name = std::move(recorded.domain);
    constraint_name = std::move(recorded.constraint);
  }

  if (domain_name.empty()) {
    std::cerr << "missing --domain (registered: " << Join(DomainKeys()) << ")\n";
    return 2;
  }
  const DomainSpec* domain_ptr = nullptr;
  std::unique_ptr<Constraint> constraint;
  std::string constraint_key;
  try {
    // GetDomain's reference is process-lifetime stable; unknown keys throw
    // the "unknown domain ...; registered: ..." listing, unknown constraint
    // names the per-domain "valid: ..." listing.
    domain_ptr = &GetDomain(domain_name);
    constraint_key = ResolveDomainConstraint(*domain_ptr, constraint_name);
    constraint = MakeDomainConstraint(*domain_ptr, constraint_key);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const DomainSpec& domain = *domain_ptr;

  std::cerr << "loading models (trains and caches on first use)...\n";
  std::vector<Model> models = ModelZoo::TrainedDomain(domain.key);
  std::vector<Model*> ptrs;
  for (Model& m : models) {
    ptrs.push_back(&m);
  }

  SessionConfig config;
  if (resume || replay) {
    config = RecordedConfig(corpus->meta());
  } else {
    config.metric = metric_name;
    config.objective = objective_name;
    config.scheduler = scheduler_name;
    config.engine = domain.engine_defaults;
    if (lambda1) config.engine.lambda1 = *lambda1;
    if (lambda2) config.engine.lambda2 = *lambda2;
    if (step) config.engine.step = *step;
    config.engine.coverage.threshold = threshold;
    config.engine.max_iterations_per_seed = iters;
    config.engine.forced_target_model = target;
    config.engine.rng_seed = rng_seed;
  }
  config.workers = workers;
  config.batch_size = batch_size;
  config.profile_phases = profile;
  std::unique_ptr<Session> engine_ptr;
  try {
    engine_ptr = std::make_unique<Session>(ptrs, constraint.get(), config);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  Session& engine = *engine_ptr;

  // The corpus is self-contained: in --resume/--replay mode the recorded
  // seed pool and campaign bounds come from the manifest (Session::Replay
  // reads them itself; --max-batches was rejected for --replay above).
  std::vector<Tensor> flag_pool;
  if (!resume && !replay) {
    const Dataset& test = ModelZoo::TestSet(domain.key);
    for (int i = 0; i < seeds; ++i) {
      flag_pool.push_back(test.inputs[static_cast<size_t>(i % test.size())]);
    }
  }
  const std::vector<Tensor>& pool =
      (resume || replay) ? corpus->meta().seeds : flag_pool;
  RunOptions opts;
  if (resume) {
    opts = RecordedBounds(corpus->meta());
  } else {
    opts.max_tests = max_tests;
  }
  if (max_batches >= 0) {
    opts.max_sync_batches = max_batches;
  }
  if (progress_every > 0) {
    // Push-based progress (RunOptions::on_batch) — no corpus polling needed.
    opts.on_batch = [progress_every](const RunProgress& p) {
      if (p.batches % static_cast<uint64_t>(progress_every) != 0 && !p.done) {
        return;
      }
      std::cerr << "progress: batches=" << p.batches << " tried=" << p.seeds_tried
                << " tests=" << p.tests_found << " coverage=" << p.mean_coverage
                << " seconds=" << p.seconds << "\n";
    };
  }

  RunStats stats;
  bool replay_ok = true;
  if (replay) {
    ReplayResult result = engine.Replay(*corpus);
    replay_ok = result.ok;
    stats = std::move(result.stats);
    if (result.ok) {
      std::cout << "replay OK: " << stats.tests.size()
                << " difference-inducing inputs reproduced bit-identically\n";
    } else {
      std::cerr << "replay DIVERGED: " << result.mismatch << "\n";
    }
  } else {
    if (corpus != nullptr && !corpus->initialized()) {
      // Registry keys, not CLI aliases: "default" was resolved above, so a
      // later resume/replay rebuilds the exact same constraint by key.
      corpus->SetMetadata("domain", domain.key);
      corpus->SetMetadata("constraint", constraint_key);
    }
    stats = engine.Run(pool, opts, corpus.get());
  }

  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    int idx = 0;
    for (const GeneratedTest& t : stats.tests) {
      DumpImage(out_dir + "/diff_" + std::to_string(idx), t.input);
      DumpImage(out_dir + "/seed_" + std::to_string(idx),
                pool[static_cast<size_t>(t.seed_index)]);
      ++idx;
    }
  }

  TablePrinter report({"Metric", "Value"});
  report.AddRow({"domain", domain.display_name + " (" + domain.key + ")"});
  report.AddRow({"constraint", constraint_key == constraint->name()
                                   ? constraint_key
                                   : constraint_key + " (" + constraint->name() + ")"});
  report.AddRow({"coverage metric", config.metric});
  report.AddRow({"objective", config.objective});
  report.AddRow({"scheduler", config.scheduler});
  report.AddRow({"workers", std::to_string(workers)});
  report.AddRow({"batch size", std::to_string(batch_size)});
  report.AddRow({"seeds tried", std::to_string(stats.seeds_tried)});
  report.AddRow({"difference-inducing inputs", std::to_string(stats.tests.size())});
  report.AddRow({"total gradient iterations", std::to_string(stats.total_iterations)});
  report.AddRow({"model forward passes", std::to_string(stats.forward_passes)});
  report.AddRow({"wall time", TablePrinter::Num(stats.seconds, 2) + " s"});
  report.AddRow({"tests / second",
                 TablePrinter::Num(stats.seconds > 0.0
                                       ? static_cast<double>(stats.tests.size()) /
                                             stats.seconds
                                       : 0.0,
                                   2)});
  report.AddRow({"mean coverage", TablePrinter::Percent(stats.mean_coverage)});
  for (int k = 0; k < engine.num_models(); ++k) {
    report.AddRow({"coverage " + models[static_cast<size_t>(k)].name(),
                   TablePrinter::Percent(engine.metric(k).Coverage())});
  }
  std::cout << report.ToString();
  if (profile) {
    // Where the run's wall time went inside the batched executor — makes the
    // execution plan's effect (and any regression) visible without a profiler.
    const ExecutorProfile phases = engine.ExecutorPhases();
    const double total = phases.TotalSeconds();
    TablePrinter prof_table({"Phase", "Seconds", "Share"});
    const auto add = [&](const char* name, double seconds) {
      prof_table.AddRow({name, TablePrinter::Num(seconds, 3),
                         TablePrinter::Percent(total > 0.0 ? seconds / total : 0.0)});
    };
    add("stack", phases.stack_seconds);
    add("forward", phases.forward_seconds);
    add("backward layers", phases.backward_layers_seconds);
    add("objective accumulate", phases.objective_accumulate_seconds);
    add("constraint", phases.constraint_seconds);
    add("coverage", phases.coverage_seconds);
    // Mean rows per step: the width the batched kernels run at.
    const double rows_per_step =
        phases.iterations > 0
            ? static_cast<double>(phases.rows) / static_cast<double>(phases.iterations)
            : 0.0;
    // The share of the workers' run time spent outside the executor phases:
    // waiting for other workers, merging and reporting, set-up.
    const double worker_seconds = stats.seconds * engine.EffectiveWorkers();
    const double wait_share = worker_seconds > 0.0 ? 1.0 - total / worker_seconds : 0.0;
    std::cout << "executor phases (" << phases.iterations << " drainer steps, "
              << TablePrinter::Num(rows_per_step, 2) << " rows per step, wait share "
              << TablePrinter::Num(wait_share, 2) << "):\n"
              << prof_table.ToString();
  }
  if (!out_dir.empty()) {
    std::cout << "images written to " << out_dir << "/\n";
  }
  if (corpus != nullptr && !replay) {
    const bool complete = corpus->has_checkpoint() && corpus->checkpoint().complete;
    std::cout << "corpus " << (resume ? "resumed" : "recorded") << " in " << corpus_dir
              << " (" << corpus->entries().size() << " entries"
              << (complete ? ", complete" : ", resumable") << ")\n";
  }
  if (replay) {
    return replay_ok ? 0 : 3;
  }
  return stats.tests.empty() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // `dxplore ctl ...` drives a running dxplored daemon (same commands as the
  // standalone dxplorectl binary).
  if (argc > 1 && std::string(argv[1]) == "ctl") {
    return dx::CtlMain(argc - 2, argv + 2);
  }
  try {
    if (argc > 1 && std::string(argv[1]) == "corpus") {
      return CorpusMain(argc - 2, argv + 2);
    }
    return Main(argc, argv);
  } catch (const std::exception& e) {
    // Corrupt corpora, config mismatches, and I/O failures surface as
    // exceptions; report them as a normal CLI error, not a core dump.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
