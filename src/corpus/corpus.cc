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

// Segmented checkpoint chain (checkpoints.bin).
constexpr uint32_t kChainMagic = 0x44584343;   // "DXCC"
constexpr uint32_t kChainVersion = 1;
constexpr uint32_t kRecordMagic = 0x44584352;  // "DXCR"
constexpr uint32_t kRecordEndMagic = 0x44584345;  // "DXCE"
constexpr uint32_t kRecordSnapshot = 1;
constexpr uint32_t kRecordDelta = 2;

// The scalar counters shared by snapshot and delta records.
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

}  // namespace

const std::string* CorpusMeta::FindMetadata(const std::string& key) const {
  for (const auto& [k, v] : metadata) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

Corpus::Corpus(std::string dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
  if (std::filesystem::exists(ManifestPath())) {
    Load();
  }
}

std::string Corpus::ManifestPath() const { return dir_ + "/manifest.bin"; }
std::string Corpus::EntriesPath() const { return dir_ + "/entries.bin"; }
std::string Corpus::JournalPath() const { return dir_ + "/journal.bin"; }
std::string Corpus::ChainPath() const { return dir_ + "/checkpoints.bin"; }

void Corpus::SetSnapshotInterval(int every) {
  if (every < 1) {
    throw std::invalid_argument("Corpus: snapshot interval must be >= 1");
  }
  snapshot_interval_ = every;
}

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
  std::ofstream out(ManifestPath(), std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("Corpus: cannot write " + ManifestPath());
  }
  BinaryWriter w(out);
  w.WriteU32(kManifestMagic);
  w.WriteU32(kCorpusFormatVersion);
  w.WriteString(meta.metric);
  w.WriteString(meta.objective);
  w.WriteString(meta.scheduler);
  w.WriteString(meta.constraint);
  WriteEngine(w, meta.engine);
  w.WriteI64(meta.sync_interval);
  w.WriteU32(meta.profile_from_seeds ? 1 : 0);
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
  out.close();
  if (!out) {
    throw std::runtime_error("Corpus: failed writing " + ManifestPath());
  }
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
    meta_.profile_from_seeds = r.ReadU32() != 0;
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
  // A chain without any valid snapshot restores nothing and is discarded.
  if (std::filesystem::exists(ChainPath())) {
    LoadChain();
  }

  // Entries and journal are only meaningful up to the checkpoint's
  // high-water marks; anything beyond is an uncovered suffix from an
  // interrupted batch and is dropped (the resumed run regenerates it).
  const uint64_t keep_entries = has_checkpoint_ ? checkpoint_.num_tests : 0;
  const uint64_t keep_batches = has_checkpoint_ ? checkpoint_.num_batches : 0;

  entries_.clear();
  if (std::filesystem::exists(EntriesPath())) {
    std::ifstream in(EntriesPath(), std::ios::binary);
    BinaryReader r(in);
    while (entries_.size() < keep_entries) {
      entries_.push_back(ReadEntry(r));
    }
    const bool trailing = in.peek() != std::ifstream::traits_type::eof();
    in.close();
    if (trailing || entries_.size() != keep_entries) {
      RewriteEntries();
    }
  } else if (keep_entries > 0) {
    throw std::runtime_error("Corpus: checkpoint expects " +
                             std::to_string(keep_entries) + " entries but " +
                             EntriesPath() + " is missing");
  }

  journal_.clear();
  if (std::filesystem::exists(JournalPath())) {
    std::ifstream in(JournalPath(), std::ios::binary);
    BinaryReader r(in);
    while (journal_.size() < keep_batches) {
      const uint64_t count = r.ReadU64();
      if (count > (1ULL << 32)) {
        throw std::runtime_error("Corpus: corrupt journal batch length in " +
                                 JournalPath());
      }
      std::vector<CorpusCheckpoint::JournalRecord> batch(count);
      for (uint64_t i = 0; i < count; ++i) {
        batch[i].seed_index = static_cast<int>(r.ReadI64());
        batch[i].found = r.ReadU32() != 0;
        batch[i].gain = r.ReadF32();
      }
      journal_.push_back(std::move(batch));
    }
    const bool trailing = in.peek() != std::ifstream::traits_type::eof();
    in.close();
    if (trailing || journal_.size() != keep_batches) {
      RewriteJournal();
    }
  } else if (keep_batches > 0) {
    throw std::runtime_error("Corpus: checkpoint expects " +
                             std::to_string(keep_batches) + " journal batches but " +
                             JournalPath() + " is missing");
  }
}

void Corpus::RewriteEntries() {
  std::ofstream out(EntriesPath(), std::ios::binary | std::ios::trunc);
  BinaryWriter w(out);
  for (const GeneratedTest& t : entries_) {
    WriteEntry(w, t);
  }
  if (!out) {
    throw std::runtime_error("Corpus: failed rewriting " + EntriesPath());
  }
}

void Corpus::RewriteJournal() {
  std::ofstream out(JournalPath(), std::ios::binary | std::ios::trunc);
  BinaryWriter w(out);
  for (const auto& batch : journal_) {
    w.WriteU64(batch.size());
    for (const auto& record : batch) {
      w.WriteI64(record.seed_index);
      w.WriteU32(record.found ? 1 : 0);
      w.WriteF32(record.gain);
    }
  }
  if (!out) {
    throw std::runtime_error("Corpus: failed rewriting " + JournalPath());
  }
}

void Corpus::AppendEntry(const GeneratedTest& test) {
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
  // Read the whole chain (one snapshot + a handful of deltas by
  // construction) and stop at the first truncated or corrupt record: the
  // valid prefix is the durable state, anything past it is a crash artifact.
  std::ifstream in(ChainPath(), std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();
  size_t pos = 0;
  auto read_u32 = [&](uint32_t* out) {
    if (pos + sizeof(uint32_t) > data.size()) return false;
    std::memcpy(out, data.data() + pos, sizeof(uint32_t));
    pos += sizeof(uint32_t);
    return true;
  };
  auto read_u64 = [&](uint64_t* out) {
    if (pos + sizeof(uint64_t) > data.size()) return false;
    std::memcpy(out, data.data() + pos, sizeof(uint64_t));
    pos += sizeof(uint64_t);
    return true;
  };

  uint32_t magic = 0, version = 0;
  if (!read_u32(&magic) || magic != kChainMagic || !read_u32(&version)) {
    throw std::runtime_error("Corpus: bad chain header in " + ChainPath());
  }
  if (version != kChainVersion) {
    throw std::runtime_error("Corpus: unsupported chain version " +
                             std::to_string(version) + " in " + ChainPath());
  }

  bool have_snapshot = false;
  CorpusCheckpoint snapshot;
  uint64_t records_past_snapshot = 0;
  bool trailing_garbage = false;
  while (pos < data.size()) {
    uint32_t rec_magic = 0, kind = 0, end_magic = 0;
    uint64_t payload_len = 0;
    if (!read_u32(&rec_magic) || rec_magic != kRecordMagic ||
        !read_u32(&kind) || !read_u64(&payload_len) ||
        payload_len > data.size() - pos) {
      trailing_garbage = true;
      break;
    }
    const size_t payload_pos = pos;
    pos += payload_len;
    if (!read_u32(&end_magic) || end_magic != kRecordEndMagic) {
      trailing_garbage = true;
      break;
    }
    if (kind == kRecordSnapshot) {
      std::istringstream payload(
          data.substr(payload_pos, static_cast<size_t>(payload_len)));
      BinaryReader r(payload);
      CorpusCheckpoint cp;
      ReadCheckpointCounters(r, cp);
      const uint64_t num_blobs = r.ReadU64();
      for (uint64_t i = 0; i < num_blobs; ++i) {
        cp.metric_blobs.push_back(r.ReadString());
      }
      cp.scheduler_blob = r.ReadString();
      snapshot = std::move(cp);
      have_snapshot = true;
      records_past_snapshot = 0;
    } else if (kind == kRecordDelta) {
      // Deltas carry no coverage state, so they are never resume points —
      // they only exist to make per-batch durability cheap. Count them so
      // the chain gets compacted below.
      ++records_past_snapshot;
    } else {
      trailing_garbage = true;
      break;
    }
  }

  if (!have_snapshot) {
    // Nothing restorable (e.g. first snapshot write was interrupted).
    std::filesystem::remove(ChainPath());
    return;
  }
  checkpoint_ = snapshot;
  has_checkpoint_ = true;
  chain_has_snapshot_ = true;
  chain_deltas_ = 0;
  chain_dirty_ = false;
  if (records_past_snapshot > 0 || trailing_garbage) {
    // Trim the chain back to its last valid snapshot so the on-disk state
    // matches what we restored (the entries/journal trim below uses the
    // snapshot's high-water marks).
    WriteSnapshot(snapshot);
  }
}

void Corpus::WriteSnapshot(const CorpusCheckpoint& checkpoint) {
  const std::string tmp = ChainPath() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    BinaryWriter w(out);
    w.WriteU32(kChainMagic);
    w.WriteU32(kChainVersion);
    std::ostringstream payload;
    {
      BinaryWriter pw(payload);
      WriteCheckpointCounters(pw, checkpoint);
      pw.WriteU64(checkpoint.metric_blobs.size());
      for (const std::string& blob : checkpoint.metric_blobs) {
        pw.WriteString(blob);
      }
      pw.WriteString(checkpoint.scheduler_blob);
    }
    const std::string bytes = payload.str();
    w.WriteU32(kRecordMagic);
    w.WriteU32(kRecordSnapshot);
    w.WriteU64(bytes.size());
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    w.WriteU32(kRecordEndMagic);
    if (!out) {
      throw std::runtime_error("Corpus: failed writing " + tmp);
    }
  }
  std::filesystem::rename(tmp, ChainPath());
  chain_has_snapshot_ = true;
  chain_deltas_ = 0;
  chain_dirty_ = false;
}

void Corpus::AppendDelta(const CorpusCheckpoint& checkpoint) {
  std::ostringstream payload;
  {
    BinaryWriter pw(payload);
    WriteCheckpointCounters(pw, checkpoint);
  }
  const std::string bytes = payload.str();
  std::ofstream out(ChainPath(), std::ios::binary | std::ios::app);
  BinaryWriter w(out);
  w.WriteU32(kRecordMagic);
  w.WriteU32(kRecordDelta);
  w.WriteU64(bytes.size());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  w.WriteU32(kRecordEndMagic);
  if (!out) {
    throw std::runtime_error("Corpus: failed appending to " + ChainPath());
  }
  ++chain_deltas_;
  chain_dirty_ = true;
}

void Corpus::WriteCheckpoint(const CorpusCheckpoint& checkpoint) {
  if (checkpoint.num_tests != entries_.size() ||
      checkpoint.num_batches != journal_.size()) {
    throw std::logic_error("Corpus: checkpoint high-water marks disagree with appends");
  }
  const bool snapshot = checkpoint.complete || !chain_has_snapshot_ ||
                        chain_deltas_ + 1 >= static_cast<uint64_t>(snapshot_interval_);
  if (snapshot) {
    WriteSnapshot(checkpoint);
  } else {
    AppendDelta(checkpoint);
  }
  checkpoint_ = checkpoint;
  has_checkpoint_ = true;
}

void Corpus::Sync() {
  if (!has_checkpoint_ || !chain_dirty_) {
    return;
  }
  WriteSnapshot(checkpoint_);
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
  if (chain_has_snapshot_) {
    s.chain_snapshots = 1;
    s.chain_deltas = chain_deltas_;
  }
  if (has_checkpoint_) {
    s.complete = checkpoint_.complete;
    s.mean_coverage = checkpoint_.mean_coverage;
  }
  return s;
}

}  // namespace dx
