#include "src/corpus/corpus.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/util/serialize.h"

namespace dx {
namespace {

constexpr uint32_t kManifestMagic = 0x44584d46;    // "DXMF"
constexpr uint32_t kEntryMagic = 0x44584554;       // "DXET"

// checkpoints.bin: a header and one framed snapshot record.
constexpr uint32_t kChainMagic = 0x44584343;   // "DXCC"
constexpr uint32_t kChainVersion = 1;
constexpr uint32_t kRecordMagic = 0x44584352;  // "DXCR"
constexpr uint32_t kRecordEndMagic = 0x44584345;  // "DXCE"
constexpr uint32_t kRecordSnapshot = 1;
// Every how-many WriteCheckpoint calls a snapshot is written.
constexpr uint64_t kSnapshotInterval = 8;

void WriteCheckpointCounters(BinaryWriter& w, const CorpusCheckpoint& cp) {
  w.WriteU32(cp.complete ? 1 : 0);
  w.WriteU64(cp.task_counter);
  w.WriteI64(cp.seeds_tried);
  w.WriteI64(cp.seeds_skipped);
  w.WriteI64(cp.total_iterations);
  w.WriteI64(cp.forward_passes);
  w.WriteU64(cp.num_tests);
  w.WriteU64(cp.num_batches);
  w.WriteF32(cp.mean_coverage);
}

void ReadCheckpointCounters(BinaryReader& r, CorpusCheckpoint& cp) {
  cp.complete = r.ReadU32() != 0;
  cp.task_counter = r.ReadU64();
  cp.seeds_tried = static_cast<int>(r.ReadI64());
  cp.seeds_skipped = static_cast<int>(r.ReadI64());
  cp.total_iterations = r.ReadI64();
  cp.forward_passes = r.ReadI64();
  cp.num_tests = r.ReadU64();
  cp.num_batches = r.ReadU64();
  cp.mean_coverage = r.ReadF32();
}

void WriteEngine(BinaryWriter& w, const EngineConfig& e) {
  w.WriteF32(e.lambda1);
  w.WriteF32(e.lambda2);
  w.WriteF32(e.step);
  w.WriteF32(e.coverage.threshold);
  w.WriteU32(e.coverage.scale_per_layer ? 1 : 0);
  w.WriteU32(e.coverage.exclude_dense ? 1 : 0);
  w.WriteU32(e.coverage.exclude_output_layer ? 1 : 0);
  w.WriteU32(static_cast<uint32_t>(e.coverage.kmc_sections));
  w.WriteU32(static_cast<uint32_t>(e.coverage.top_k));
  w.WriteI64(e.max_iterations_per_seed);
  w.WriteF32(e.steering_eps);
  w.WriteU32(e.normalize_gradient ? 1 : 0);
  w.WriteI64(e.forced_target_model);
  w.WriteU64(e.rng_seed);
}

EngineConfig ReadEngine(BinaryReader& r) {
  EngineConfig e;
  e.lambda1 = r.ReadF32();
  e.lambda2 = r.ReadF32();
  e.step = r.ReadF32();
  e.coverage.threshold = r.ReadF32();
  e.coverage.scale_per_layer = r.ReadU32() != 0;
  e.coverage.exclude_dense = r.ReadU32() != 0;
  e.coverage.exclude_output_layer = r.ReadU32() != 0;
  e.coverage.kmc_sections = static_cast<int>(r.ReadU32());
  e.coverage.top_k = static_cast<int>(r.ReadU32());
  e.max_iterations_per_seed = static_cast<int>(r.ReadI64());
  e.steering_eps = r.ReadF32();
  e.normalize_gradient = r.ReadU32() != 0;
  e.forced_target_model = static_cast<int>(r.ReadI64());
  e.rng_seed = r.ReadU64();
  return e;
}

void WriteEntry(BinaryWriter& w, const GeneratedTest& t) {
  w.WriteU32(kEntryMagic);
  w.WriteI64(t.seed_index);
  w.WriteI64(t.iterations);
  w.WriteI64(t.deviating_model);
  w.WriteU64(t.task_ordinal);
  w.WriteF64(t.seconds);
  w.WriteInts(t.labels);
  w.WriteFloats(t.outputs);
  w.WriteTensor(t.input);
}

GeneratedTest ReadEntry(BinaryReader& r) {
  if (r.ReadU32() != kEntryMagic) {
    throw std::runtime_error("Corpus: corrupt entry record");
  }
  GeneratedTest t;
  t.seed_index = static_cast<int>(r.ReadI64());
  t.iterations = static_cast<int>(r.ReadI64());
  t.deviating_model = static_cast<int>(r.ReadI64());
  t.task_ordinal = r.ReadU64();
  t.seconds = r.ReadF64();
  t.labels = r.ReadInts();
  t.outputs = r.ReadFloats();
  t.input = r.ReadTensor();
  return t;
}

// Reads the first `count` records of `path` with `read_one` and returns the
// bytes they span; whatever follows them is left unread.
template <typename ReadOne>
uint64_t ReadPrefix(const std::string& path, uint64_t count, const char* what,
                    ReadOne read_one) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (count > 0) {
      throw std::runtime_error("Corpus: checkpoint expects " + std::to_string(count) +
                               " " + what + " but " + path + " is missing");
    }
    return 0;
  }
  BinaryReader r(in);
  for (uint64_t i = 0; i < count; ++i) {
    read_one(r);
  }
  return static_cast<uint64_t>(in.tellg());
}

// Writes `path` whole through `path`.tmp + rename, so a concurrent open sees
// either the old file or the new one, never part of one.
template <typename Fill>
void ReplaceFile(const std::string& path, Fill fill) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    fill(out);
    out.close();
    if (!out) {
      throw std::runtime_error("Corpus: failed writing " + tmp);
    }
  }
  std::filesystem::rename(tmp, path);
}

}  // namespace

const std::string* CorpusMeta::FindMetadata(const std::string& key) const {
  for (const auto& [k, v] : metadata) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

SessionConfig RecordedConfig(const CorpusMeta& meta) {
  SessionConfig config;
  config.engine = meta.engine;
  config.metric = meta.metric;
  config.objective = meta.objective;
  config.scheduler = meta.scheduler;
  config.sync_interval = meta.sync_interval;
  return config;
}

RunOptions RecordedBounds(const CorpusMeta& meta) {
  RunOptions options;
  options.max_tests = meta.max_tests;
  options.max_seed_passes = meta.max_seed_passes;
  options.coverage_goal = meta.coverage_goal;
  return options;
}

DomainAndConstraint RecordedDomain(const CorpusMeta& meta) {
  const std::string* domain = meta.FindMetadata("domain");
  const std::string* constraint = meta.FindMetadata("constraint");
  if (domain == nullptr || constraint == nullptr) {
    throw std::invalid_argument("manifest lacks domain/constraint metadata");
  }
  return {*domain, *constraint};
}

Corpus::Corpus(std::string dir) : dir_(std::move(dir)) {
  if (std::filesystem::exists(ManifestPath())) {
    Load();
  }
}

std::string Corpus::ManifestPath() const { return dir_ + "/manifest.bin"; }
std::string Corpus::EntriesPath() const { return dir_ + "/entries.bin"; }
std::string Corpus::JournalPath() const { return dir_ + "/journal.bin"; }
std::string Corpus::ChainPath() const { return dir_ + "/checkpoints.bin"; }

void Corpus::SetMetadata(const std::string& key, const std::string& value) {
  if (initialized_) {
    return;  // Manifest is immutable once written.
  }
  for (auto& [k, v] : pending_metadata_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  pending_metadata_.emplace_back(key, value);
}

void Corpus::Initialize(CorpusMeta meta) {
  if (initialized_) {
    throw std::logic_error("Corpus: already initialized: " + dir_);
  }
  for (auto& kv : pending_metadata_) {
    meta.metadata.push_back(std::move(kv));
  }
  pending_metadata_.clear();
  std::filesystem::create_directories(dir_);
  ReplaceFile(ManifestPath(), [&meta](std::ostream& out) {
    BinaryWriter w(out);
    w.WriteU32(kManifestMagic);
    w.WriteU32(kCorpusFormatVersion);
    w.WriteString(meta.metric);
    w.WriteString(meta.objective);
    w.WriteString(meta.scheduler);
    w.WriteString(meta.constraint);
    WriteEngine(w, meta.engine);
    w.WriteI64(meta.sync_interval);
    w.WriteU32(1);  // Seeds are profiled (see CorpusMeta).
    w.WriteI64(meta.max_tests);
    w.WriteI64(meta.max_seed_passes);
    w.WriteF32(meta.coverage_goal);
    w.WriteU64(meta.model_names.size());
    for (const std::string& name : meta.model_names) {
      w.WriteString(name);
    }
    w.WriteU64(meta.metadata.size());
    for (const auto& [k, v] : meta.metadata) {
      w.WriteString(k);
      w.WriteString(v);
    }
    w.WriteU64(meta.seeds.size());
    for (const Tensor& seed : meta.seeds) {
      w.WriteTensor(seed);
    }
  });
  meta_ = std::move(meta);
  initialized_ = true;
}

const CorpusMeta& Corpus::meta() const {
  if (!initialized_) {
    throw std::logic_error("Corpus: not initialized: " + dir_);
  }
  return meta_;
}

void Corpus::Load() {
  {
    std::ifstream in(ManifestPath(), std::ios::binary);
    BinaryReader r(in);
    if (r.ReadU32() != kManifestMagic) {
      throw std::runtime_error("Corpus: bad manifest magic in " + ManifestPath());
    }
    const uint32_t version = r.ReadU32();
    if (version != kCorpusFormatVersion) {
      throw std::runtime_error("Corpus: unsupported format version " +
                               std::to_string(version) + " in " + ManifestPath());
    }
    meta_.metric = r.ReadString();
    meta_.objective = r.ReadString();
    meta_.scheduler = r.ReadString();
    meta_.constraint = r.ReadString();
    meta_.engine = ReadEngine(r);
    meta_.sync_interval = static_cast<int>(r.ReadI64());
    if (r.ReadU32() == 0) {
      // Every session profiles the seeds its metric asks for, so resuming
      // or replaying this campaign would silently diverge.
      throw std::runtime_error("Corpus: " + ManifestPath() +
                               " records a campaign run without seed profiling, "
                               "which is no longer supported");
    }
    meta_.max_tests = static_cast<int>(r.ReadI64());
    meta_.max_seed_passes = static_cast<int>(r.ReadI64());
    meta_.coverage_goal = r.ReadF32();
    const uint64_t num_models = r.ReadU64();
    meta_.model_names.clear();
    for (uint64_t i = 0; i < num_models; ++i) {
      meta_.model_names.push_back(r.ReadString());
    }
    const uint64_t num_metadata = r.ReadU64();
    meta_.metadata.clear();
    for (uint64_t i = 0; i < num_metadata; ++i) {
      std::string key = r.ReadString();
      std::string value = r.ReadString();
      meta_.metadata.emplace_back(std::move(key), std::move(value));
    }
    const uint64_t num_seeds = r.ReadU64();
    meta_.seeds.clear();
    for (uint64_t i = 0; i < num_seeds; ++i) {
      meta_.seeds.push_back(r.ReadTensor());
    }
    initialized_ = true;
  }

  // A pre-chain corpus keeps its resume point in a monolithic
  // checkpoint.bin. Opening it as checkpoint-less would trim away its
  // entries, so refuse it instead.
  const std::string legacy = dir_ + "/checkpoint.bin";
  if (std::filesystem::exists(legacy)) {
    throw std::runtime_error("Corpus: " + legacy +
                             " is a pre-chain checkpoint, which is no longer supported");
  }
  if (std::filesystem::exists(ChainPath())) {
    LoadChain();
  }

  // Only the prefix the snapshot covers counts. A longer file holds batches
  // that a running writer has not snapshotted yet, or that an interrupted
  // one never will; either way a reader ignores them.
  const uint64_t keep_entries = has_checkpoint_ ? checkpoint_.num_tests : 0;
  const uint64_t keep_batches = has_checkpoint_ ? checkpoint_.num_batches : 0;
  covered_entry_bytes_ = ReadPrefix(EntriesPath(), keep_entries, "entries",
                                    [this](BinaryReader& r) { entries_.push_back(ReadEntry(r)); });
  covered_journal_bytes_ =
      ReadPrefix(JournalPath(), keep_batches, "journal batches", [this](BinaryReader& r) {
        const uint64_t count = r.ReadU64();
        if (count > (1ULL << 32)) {
          throw std::runtime_error("Corpus: corrupt journal batch length in " +
                                   JournalPath());
        }
        std::vector<CorpusCheckpoint::JournalRecord> batch(count);
        for (auto& record : batch) {
          record.seed_index = static_cast<int>(r.ReadI64());
          record.found = r.ReadU32() != 0;
          record.gain = r.ReadF32();
        }
        journal_.push_back(std::move(batch));
      });
}

void Corpus::TrimTails() {
  if (tails_trimmed_) {
    return;
  }
  // Appends must continue right after the covered prefix: cut off what an
  // interrupted writer left past it (the resumed run regenerates it).
  for (const auto& [path, covered] : {std::pair(EntriesPath(), covered_entry_bytes_),
                                      std::pair(JournalPath(), covered_journal_bytes_)}) {
    std::error_code ec;
    const uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec && size > covered) {
      std::filesystem::resize_file(path, covered);
    }
  }
  tails_trimmed_ = true;
}

void Corpus::AppendEntry(const GeneratedTest& test) {
  TrimTails();
  std::ofstream out(EntriesPath(), std::ios::binary | std::ios::app);
  BinaryWriter w(out);
  WriteEntry(w, test);
  if (!out) {
    throw std::runtime_error("Corpus: failed appending to " + EntriesPath());
  }
  entries_.push_back(test);
}

void Corpus::AppendJournalBatch(
    const std::vector<CorpusCheckpoint::JournalRecord>& batch) {
  TrimTails();
  std::ofstream out(JournalPath(), std::ios::binary | std::ios::app);
  BinaryWriter w(out);
  w.WriteU64(batch.size());
  for (const auto& record : batch) {
    w.WriteI64(record.seed_index);
    w.WriteU32(record.found ? 1 : 0);
    w.WriteF32(record.gain);
  }
  if (!out) {
    throw std::runtime_error("Corpus: failed appending to " + JournalPath());
  }
  journal_.push_back(batch);
}

void Corpus::LoadChain() {
  // The snapshot is the first record. Whatever follows it is ignored: a torn
  // append, or the counters-only records that older writers appended. A
  // snapshot cut short restores nothing.
  std::ifstream in(ChainPath(), std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();
  size_t pos = 0;
  auto read = [&](auto* out) {
    if (pos + sizeof(*out) > data.size()) return false;
    std::memcpy(out, data.data() + pos, sizeof(*out));
    pos += sizeof(*out);
    return true;
  };

  uint32_t magic = 0, version = 0;
  if (!read(&magic) || magic != kChainMagic || !read(&version)) {
    throw std::runtime_error("Corpus: bad chain header in " + ChainPath());
  }
  if (version != kChainVersion) {
    throw std::runtime_error("Corpus: unsupported chain version " +
                             std::to_string(version) + " in " + ChainPath());
  }

  uint32_t rec_magic = 0, kind = 0, end_magic = 0;
  uint64_t payload_len = 0;
  if (!read(&rec_magic) || rec_magic != kRecordMagic || !read(&kind) ||
      kind != kRecordSnapshot || !read(&payload_len) || payload_len > data.size() - pos) {
    return;
  }
  const size_t payload_pos = pos;
  pos += payload_len;
  if (!read(&end_magic) || end_magic != kRecordEndMagic) {
    return;
  }
  // Corpora from older writers end the payload with a scheduler blob, which
  // is never read: the journal restores the scheduler.
  std::istringstream payload(data.substr(payload_pos, static_cast<size_t>(payload_len)));
  BinaryReader r(payload);
  ReadCheckpointCounters(r, checkpoint_);
  const uint64_t num_blobs = r.ReadU64();
  for (uint64_t i = 0; i < num_blobs; ++i) {
    checkpoint_.metric_blobs.push_back(r.ReadString());
  }
  has_checkpoint_ = true;
  chain_has_snapshot_ = true;
}

void Corpus::WriteSnapshot(const CorpusCheckpoint& checkpoint) {
  std::ostringstream payload;
  {
    BinaryWriter pw(payload);
    WriteCheckpointCounters(pw, checkpoint);
    pw.WriteU64(checkpoint.metric_blobs.size());
    for (const std::string& blob : checkpoint.metric_blobs) {
      pw.WriteString(blob);
    }
  }
  const std::string bytes = payload.str();
  ReplaceFile(ChainPath(), [&bytes](std::ostream& out) {
    BinaryWriter w(out);
    w.WriteU32(kChainMagic);
    w.WriteU32(kChainVersion);
    w.WriteU32(kRecordMagic);
    w.WriteU32(kRecordSnapshot);
    w.WriteU64(bytes.size());
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    w.WriteU32(kRecordEndMagic);
  });
  chain_has_snapshot_ = true;
  chain_deltas_ = 0;
}

void Corpus::WriteCheckpoint(const CorpusCheckpoint& checkpoint) {
  if (checkpoint.num_tests != entries_.size() ||
      checkpoint.num_batches != journal_.size()) {
    throw std::logic_error("Corpus: checkpoint high-water marks disagree with appends");
  }
  TrimTails();
  if (checkpoint.complete || !chain_has_snapshot_ || chain_deltas_ + 1 >= kSnapshotInterval) {
    WriteSnapshot(checkpoint);
  } else {
    ++chain_deltas_;
  }
  checkpoint_ = checkpoint;
  has_checkpoint_ = true;
}

void Corpus::Sync() {
  if (chain_deltas_ > 0) {
    WriteSnapshot(checkpoint_);
  }
}

const CorpusCheckpoint& Corpus::checkpoint() const {
  if (!has_checkpoint_) {
    throw std::logic_error("Corpus: no checkpoint in " + dir_);
  }
  return checkpoint_;
}

CorpusStats Corpus::Stats() const {
  CorpusStats s;
  if (initialized_) {
    if (const std::string* domain = meta_.FindMetadata("domain")) {
      s.domain = *domain;
    }
    s.objective = meta_.objective;
    s.metric = meta_.metric;
    s.scheduler = meta_.scheduler;
    s.num_seeds = meta_.seeds.size();
    s.entries_per_model.assign(meta_.model_names.size(), 0);
  }
  s.num_entries = entries_.size();
  s.journal_batches = journal_.size();
  for (const GeneratedTest& t : entries_) {
    if (t.deviating_model >= 0 &&
        static_cast<size_t>(t.deviating_model) < s.entries_per_model.size()) {
      ++s.entries_per_model[static_cast<size_t>(t.deviating_model)];
    }
  }
  auto size_of = [](const std::string& path) -> uint64_t {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<uint64_t>(bytes);
  };
  s.manifest_bytes = size_of(ManifestPath());
  s.entries_bytes = size_of(EntriesPath());
  s.journal_bytes = size_of(JournalPath());
  s.checkpoint_bytes = size_of(ChainPath());
  s.total_bytes =
      s.manifest_bytes + s.entries_bytes + s.journal_bytes + s.checkpoint_bytes;
  s.chain_snapshots = chain_has_snapshot_ ? 1 : 0;
  s.chain_deltas = chain_deltas_;
  if (has_checkpoint_) {
    s.complete = checkpoint_.complete;
    s.mean_coverage = checkpoint_.mean_coverage;
  }
  return s;
}

}  // namespace dx
