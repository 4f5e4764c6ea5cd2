#include "core/collection.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "core/index_factory.h"
#include "durability/fail_point.h"
#include "durability/snapshot.h"
#include "util/text.h"
#include "util/top_k_heap.h"

namespace dblsh {

namespace {

/// Maps a runtime storage kind to its durability snapshot tag (the
/// manifest `storage` field and per-shard snapshot header value).
uint32_t SnapshotStorageOf(StorageKind kind) {
  switch (kind) {
    case StorageKind::kSq8:
      return durability::kSnapshotSq8;
    case StorageKind::kPq:
      return durability::kSnapshotPq;
    case StorageKind::kFp32:
      break;
  }
  return durability::kSnapshotFp32;
}

}  // namespace

/// Runtime state of a durable collection. The WAL writer entries are
/// guarded by their shard's write lock (appends and checkpoint swap-ins
/// both hold it); `wal_seq` is guarded by `checkpoint_mutex`; the counters
/// are plain atomics; `dir`/`compact_threshold`/`wal_sync_every` and
/// `recovery_ms`/`replayed` are written once during open.
struct DurabilityState {
  std::string dir;
  double compact_threshold = 0.0;
  uint32_t wal_sync_every = 1;
  /// Serializes checkpoints (rotation + snapshot + manifest).
  std::mutex checkpoint_mutex;
  /// Sequence number of the live WAL segments (`shard-N.wal.<wal_seq>`).
  uint64_t wal_seq = 0;
  /// One writer per shard; an entry is swapped under that shard's write
  /// lock at each checkpoint rotation.
  std::vector<std::unique_ptr<durability::WalWriter>> wals;
  std::atomic<uint64_t> checkpoints{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> wal_appends{0};
  uint64_t replayed = 0;
  double recovery_ms = 0.0;
  /// Replication pins (guarded by checkpoint_mutex): pin id -> lowest WAL
  /// segment sequence the holder still needs. Checkpoint's GC only deletes
  /// segments below min(new_seq, every pin's floor), so a subscribed
  /// follower's position is never collected out from under it.
  uint64_t next_pin = 1;
  std::map<uint64_t, uint64_t> wal_pins;
};

Collection::Collection(size_t dim, const CollectionOptions& options)
    : dim_(dim),
      executor_(options.executor != nullptr ? options.executor
                                            : &exec::TaskExecutor::Default()),
      background_rebuild_(options.background_rebuild),
      storage_(options.storage),
      quantized_(options.storage != StorageKind::kFp32),
      pq_m_(std::max<size_t>(1, options.pq_m)),
      rerank_(std::max<size_t>(1, options.rerank)) {
  const size_t num_shards = std::max<size_t>(1, options.shards);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->store = MakeVectorStore(
        storage_, std::make_unique<FloatMatrix>(0, dim), pq_m_);
    shard->data = &shard->store->matrix();
    shards_.push_back(std::move(shard));
  }
}

Collection::Collection(std::unique_ptr<FloatMatrix> data,
                       const CollectionOptions& options)
    : executor_(options.executor != nullptr ? options.executor
                                            : &exec::TaskExecutor::Default()),
      background_rebuild_(options.background_rebuild),
      storage_(options.storage),
      quantized_(options.storage != StorageKind::kFp32),
      pq_m_(std::max<size_t>(1, options.pq_m)),
      rerank_(std::max<size_t>(1, options.rerank)) {
  assert(data != nullptr);
  dim_ = data->cols();
  const size_t num_shards = std::max<size_t>(1, options.shards);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (num_shards == 1) {
    // Address-stable adoption: prebuilt indexes over *data stay valid
    // (fp32 storage; quantized stores re-encode, see AddPrebuiltIndex).
    shards_[0]->store = MakeVectorStore(storage_, std::move(data), pq_m_);
  } else {
    // Partition by id: global row g lands in shard g % S at local row
    // g / S, so the per-shard ids stay dense and globally recoverable.
    std::vector<std::unique_ptr<FloatMatrix>> parts;
    parts.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      parts.push_back(std::make_unique<FloatMatrix>(0, dim_));
    }
    const FloatMatrix& src = *data;
    for (size_t g = 0; g < src.rows(); ++g) {
      parts[g % num_shards]->AppendRow(src.row(g), src.cols());
    }
    // Replay the tombstones in erasure order so each shard's LIFO
    // free-list recycles in the same relative order the source would.
    for (const uint32_t g : src.free_slots()) {
      Status erased = parts[g % num_shards]->EraseRow(LocalOfId(g));
      assert(erased.ok());
      (void)erased;
    }
    for (size_t s = 0; s < num_shards; ++s) {
      shards_[s]->store =
          MakeVectorStore(storage_, std::move(parts[s]), pq_m_);
    }
  }
  for (auto& shard : shards_) {
    shard->data = &shard->store->matrix();
    shard->approx_rows.store(shard->data->rows(), std::memory_order_relaxed);
    shard->approx_free.store(shard->data->free_slots().size(),
                             std::memory_order_relaxed);
  }
}

Collection::~Collection() {
  {
    std::lock_guard lock(bg_mutex_);
    closing_ = true;
  }
  WaitForRebuilds();
}

Result<std::unique_ptr<Collection>> Collection::FromSpec(
    const std::string& spec, std::unique_ptr<FloatMatrix> data,
    exec::TaskExecutor* executor) {
  static const char* kGrammar =
      "collection spec grammar: \"collection[,shards=N][,rebuild=inline|"
      "background][,storage=fp32|sq8|pq][,m=M][,nbits=8][,rerank=N]"
      "[,durability=PATH][,compact_threshold=R][,wal_sync=N]: INDEX_SPEC (; "
      "INDEX_SPEC)*\", e.g. \"collection,shards=4,storage=pq,m=16:"
      " DB-LSH,c=1.5; PM-LSH,rebuild_threshold=500\"";
  const size_t colon = spec.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "missing \"collection:\" prefix in \"" + spec + "\"; " + kGrammar);
  }
  auto prefix = IndexFactory::Spec::Parse(text::Trim(spec.substr(0, colon)));
  if (!prefix.ok()) return prefix.status();
  if (!text::EqualsIgnoreCase(text::Trim(prefix.value().name()),
                              "collection")) {
    return Status::InvalidArgument(
        "missing \"collection:\" prefix in \"" + spec + "\"; " + kGrammar);
  }
  CollectionOptions options;
  options.executor = executor;
  std::string rebuild_mode;
  std::string storage_name;
  SpecReader reader(prefix.value());
  reader.Key("shards", &options.shards);
  reader.Key("rebuild", &rebuild_mode);
  reader.Key("storage", &storage_name);
  // SIZE_MAX = key absent (SpecReader leaves the default in place); any
  // provided value, 0 included, must be validated below.
  constexpr size_t kAbsent = std::numeric_limits<size_t>::max();
  size_t spec_m = kAbsent;
  size_t spec_nbits = kAbsent;
  reader.Key("m", &spec_m);
  reader.Key("nbits", &spec_nbits);
  reader.Key("rerank", &options.rerank);
  reader.Key("durability", &options.durability_dir);
  reader.Key("compact_threshold", &options.compact_threshold);
  reader.Key("wal_sync", &options.wal_sync);
  DBLSH_RETURN_IF_ERROR(reader.Finish());
  if (options.shards == 0) {
    return Status::InvalidArgument(
        "collection key \"shards\" must be >= 1; " + std::string(kGrammar));
  }
  if (rebuild_mode == "background") {
    options.background_rebuild = true;
  } else if (!rebuild_mode.empty() && rebuild_mode != "inline") {
    return Status::InvalidArgument(
        "collection key \"rebuild\" expects inline or background, got \"" +
        rebuild_mode + "\"");
  }
  if (!storage_name.empty()) {
    auto kind = ParseStorageKind(storage_name);
    if (!kind.ok()) return kind.status();
    options.storage = kind.value();
  }
  if (options.storage == StorageKind::kPq) {
    if (spec_m != kAbsent) {
      if (spec_m == 0) {
        return Status::InvalidArgument(
            "collection key \"m\" must be >= 1; " + std::string(kGrammar));
      }
      options.pq_m = spec_m;
    }
    if (spec_nbits != kAbsent && spec_nbits != 8) {
      return Status::InvalidArgument(
          "collection key \"nbits\" must be 8 (256-centroid codebooks are "
          "the only supported width), got " + std::to_string(spec_nbits));
    }
    if (data != nullptr && data->cols() > 0 && options.pq_m > data->cols()) {
      return Status::InvalidArgument(
          "collection key \"m\" (" + std::to_string(options.pq_m) +
          ") must be <= the vector dimension (" +
          std::to_string(data->cols()) + ")");
    }
  } else if (spec_m != kAbsent || spec_nbits != kAbsent) {
    return Status::InvalidArgument(
        "collection keys \"m\" and \"nbits\" require storage=pq; " +
        std::string(kGrammar));
  }
  if (options.rerank == 0) {
    return Status::InvalidArgument(
        "collection key \"rerank\" must be >= 1; " + std::string(kGrammar));
  }
  if (options.compact_threshold < 0.0 || options.compact_threshold >= 1.0) {
    return Status::InvalidArgument(
        "collection key \"compact_threshold\" must be in [0, 1); " +
        std::string(kGrammar));
  }
  if (options.wal_sync == 0) {
    return Status::InvalidArgument(
        "collection key \"wal_sync\" must be >= 1; " + std::string(kGrammar));
  }
  if (options.durability_dir.empty() &&
      (options.compact_threshold > 0.0 || options.wal_sync != 1)) {
    return Status::InvalidArgument(
        "collection keys \"compact_threshold\" and \"wal_sync\" require "
        "\"durability=PATH\"");
  }

  std::unique_ptr<Collection> collection;
  if (!options.durability_dir.empty()) {
    auto manifest = durability::LoadManifest(options.durability_dir);
    if (manifest.ok()) {
      // Recover: the directory is the source of truth; seeding rows over
      // existing durable state would silently fork it.
      if (data != nullptr && data->rows() > 0) {
        return Status::InvalidArgument(
            "durability directory \"" + options.durability_dir +
            "\" already holds a checkpoint; open it without seed data (or "
            "point durability= at a fresh directory)");
      }
      const durability::Manifest& m = manifest.value();
      if (m.shards != options.shards) {
        return Status::InvalidArgument(
            "spec says shards=" + std::to_string(options.shards) +
            " but the durable state at \"" + options.durability_dir +
            "\" has " + std::to_string(m.shards) + " shards");
      }
      const uint32_t spec_storage = SnapshotStorageOf(options.storage);
      if (m.storage != spec_storage) {
        return Status::InvalidArgument(
            "spec storage=" + std::string(StorageKindName(options.storage)) +
            " does not match the durable state at \"" +
            options.durability_dir + "\"");
      }
      collection = std::make_unique<Collection>(m.dim, options);
      DBLSH_RETURN_IF_ERROR(collection->RecoverShards(options, m));
    } else if (manifest.status().code() == StatusCode::kNotFound) {
      // Fresh durable collection: seed rows define the geometry.
      if (data == nullptr) {
        return Status::NotFound(
            "durability directory \"" + options.durability_dir +
            "\" holds no durable state (no manifest) and no seed data was "
            "provided; seed a fresh collection or point durability= at an "
            "existing one");
      }
      collection = std::make_unique<Collection>(std::move(data), options);
      DBLSH_RETURN_IF_ERROR(collection->InitDurability(options));
    } else {
      return manifest.status();  // corrupt manifest: never clobber
    }
  } else {
    if (data == nullptr) {
      return Status::InvalidArgument(
          "FromSpec needs seed data (a RAM-only collection cannot recover "
          "from disk); pass an empty FloatMatrix to start empty");
    }
    collection = std::make_unique<Collection>(std::move(data), options);
  }
  const std::string body = spec.substr(colon + 1);
  size_t added = 0;
  size_t pos = 0;
  while (pos <= body.size()) {
    const size_t semi = body.find(';', pos);
    const std::string part = text::Trim(
        body.substr(pos, semi == std::string::npos ? std::string::npos
                                                   : semi - pos));
    pos = (semi == std::string::npos) ? body.size() + 1 : semi + 1;
    if (part.empty()) {
      return Status::InvalidArgument("empty index spec in \"" + spec +
                                     "\"; " + std::string(kGrammar));
    }
    DBLSH_RETURN_IF_ERROR(collection->AddIndex(part));
    ++added;
  }
  if (added == 0) {
    return Status::InvalidArgument("collection spec names no indexes; " +
                                   std::string(kGrammar));
  }
  return collection;
}

Result<std::unique_ptr<Collection>> Collection::Open(
    const std::string& spec, exec::TaskExecutor* executor) {
  if (spec.find("durability") == std::string::npos) {
    return Status::InvalidArgument(
        "Collection::Open requires a spec with durability=PATH (there is "
        "no on-disk state to open otherwise)");
  }
  return FromSpec(spec, nullptr, executor);
}

Status Collection::InitDurability(const CollectionOptions& options) {
  DBLSH_RETURN_IF_ERROR(durability::EnsureDir(options.durability_dir));
  durability_ = std::make_unique<DurabilityState>();
  durability_->dir = options.durability_dir;
  durability_->compact_threshold = options.compact_threshold;
  durability_->wal_sync_every = options.wal_sync;
  durability_->wals.resize(shards_.size());
  // The initial checkpoint persists the seed rows and publishes the
  // manifest; its WAL rotation installs the writers every commit needs.
  return Checkpoint();
}

Status Collection::RecoverShards(const CollectionOptions& options,
                                 const durability::Manifest& manifest) {
  const auto t0 = std::chrono::steady_clock::now();
  durability_ = std::make_unique<DurabilityState>();
  durability_->dir = options.durability_dir;
  durability_->compact_threshold = options.compact_threshold;
  durability_->wal_sync_every = options.wal_sync;
  durability_->wals.resize(shards_.size());

  uint64_t max_seq = manifest.wal_seq;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    auto snap_or = durability::LoadShardSnapshot(
        durability::SnapshotPath(durability_->dir, s));
    if (!snap_or.ok()) {
      if (snap_or.status().code() == StatusCode::kNotFound) {
        return Status::Corruption(
            "durability: manifest present but shard " + std::to_string(s) +
            " snapshot is missing in " + durability_->dir);
      }
      return snap_or.status();
    }
    durability::ShardSnapshot snap = std::move(snap_or).value();
    if (snap.dim != dim_) {
      return Status::Corruption(
          "durability: shard " + std::to_string(s) + " snapshot dim " +
          std::to_string(snap.dim) + " does not match manifest dim " +
          std::to_string(dim_));
    }

    // Rebuild the store image. The free-list is replayed in erasure order
    // so InsertRow recycling during WAL replay reproduces the original
    // LIFO id assignment exactly.
    if (snap.storage == durability::kSnapshotSq8) {
      // Metadata shell: right shape, fp32 payload dropped immediately —
      // the codes below are the payload.
      auto shell = std::make_unique<FloatMatrix>(snap.rows, dim_);
      shell->ReleasePayload();
      for (const uint32_t slot : snap.free_slots) {
        DBLSH_RETURN_IF_ERROR(shell->EraseRow(slot));
      }
      shard.store = std::make_unique<Sq8Store>(
          std::move(shell), std::move(snap.scales), std::move(snap.offsets),
          std::move(snap.codes), snap.trained);
    } else if (snap.storage == durability::kSnapshotPq) {
      if (snap.pq_m != pq_m_) {
        return Status::Corruption(
            "durability: shard " + std::to_string(s) + " snapshot pq m=" +
            std::to_string(snap.pq_m) + " does not match the spec's m=" +
            std::to_string(pq_m_) +
            " (reopen with the m the collection was created with)");
      }
      auto shell = std::make_unique<FloatMatrix>(snap.rows, dim_);
      shell->ReleasePayload();
      for (const uint32_t slot : snap.free_slots) {
        DBLSH_RETURN_IF_ERROR(shell->EraseRow(slot));
      }
      // Adopt the snapshot's codebooks + codes verbatim: restore is
      // byte-identical, never a re-train/re-encode.
      shard.store = std::make_unique<PqStore>(
          std::move(shell), snap.pq_m, std::move(snap.codebooks),
          std::move(snap.codes), snap.trained);
    } else {
      auto matrix = std::make_unique<FloatMatrix>(snap.rows, dim_,
                                                  std::move(snap.fp32));
      for (const uint32_t slot : snap.free_slots) {
        DBLSH_RETURN_IF_ERROR(matrix->EraseRow(slot));
      }
      shard.store = std::make_unique<Fp32Store>(std::move(matrix));
    }
    shard.data = &shard.store->matrix();
    CommitLocked(shard, snap.lsn);  // the snapshot is the shard's base commit

    // Replay the log: every segment at/after the manifest's generation,
    // ascending, skipping records the snapshot already covers.
    const std::vector<uint64_t> seqs =
        durability::ListWalSegments(durability_->dir, s);
    for (size_t i = 0; i < seqs.size(); ++i) {
      if (!seqs.empty()) max_seq = std::max(max_seq, seqs[i]);
      if (seqs[i] < manifest.wal_seq) continue;  // superseded, not yet GC'd
      const bool last = i + 1 == seqs.size();
      auto replay_or = durability::ReadWal(
          durability::WalPath(durability_->dir, s, seqs[i]),
          static_cast<uint32_t>(dim_));
      if (!replay_or.ok()) {
        // A torn *header* can only be the newest segment, killed during
        // checkpoint rotation before any record (or acknowledgement)
        // existed — skip it. Anywhere else it is real damage.
        if (last && replay_or.status().code() == StatusCode::kCorruption) {
          continue;
        }
        return replay_or.status();
      }
      const durability::WalReplay& replay = replay_or.value();
      if (!replay.tail.ok() && !last) {
        return replay.tail;  // torn tail mid-history: not a crash artifact
      }
      for (const durability::WalRecord& rec : replay.records) {
        if (rec.lsn <= snap.lsn) continue;
        ++durability_->replayed;
        DBLSH_RETURN_IF_ERROR(ApplyRecordLocked(s, rec));
        CommitLocked(shard, rec.lsn);
      }
    }
  }
  // Start the new generation past every segment on disk — including
  // orphans a crashed rotation left above the manifest's generation.
  durability_->wal_seq = max_seq;
  const auto t1 = std::chrono::steady_clock::now();
  durability_->recovery_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  // Checkpoint-on-open: rotates onto fresh segments (installing the WAL
  // writers), folds the replay into new snapshots, and garbage-collects
  // torn tails with the superseded segments.
  return Checkpoint();
}

Status Collection::Checkpoint() {
  if (durability_ == nullptr) {
    return Status::InvalidArgument(
        "collection has no durability= configured; nothing to checkpoint");
  }
  DurabilityState& d = *durability_;
  std::lock_guard ckpt_lock(d.checkpoint_mutex);
  const uint64_t new_seq = d.wal_seq + 1;

  std::vector<durability::ShardSnapshot> snaps(shards_.size());
  uint64_t checkpoint_lsn = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    // Open the replacement segment before taking the lock (file creation
    // off the writer's critical path). On failure the old segment stays
    // live; the orphan file is skipped at recovery (header checks) and
    // its sequence number is never reused (max-seq scan on open).
    auto writer_or = durability::WalWriter::Create(
        durability::WalPath(d.dir, s, new_seq), static_cast<uint32_t>(dim_),
        d.wal_sync_every);
    if (!writer_or.ok()) return writer_or.status();

    std::unique_lock lock(shard.mutex);
    durability::ShardSnapshot& snap = snaps[s];
    snap.dim = dim_;
    snap.rows = shard.data->rows();
    snap.free_slots = shard.data->free_slots();
    // Captured under the shard write lock: every record this shard wrote
    // to the outgoing segment has lsn <= this value, and every record it
    // will write to the incoming one has lsn > it — the replay filter's
    // exact contract. The *shard's* applied LSN (not the global epoch):
    // on a follower the per-shard streams progress independently, so a
    // sibling shard's higher LSN must not mask this shard's undelivered
    // records.
    snap.lsn = shard.applied_lsn;
    if (storage_ == StorageKind::kSq8) {
      const auto* sq8 = static_cast<const Sq8Store*>(shard.store.get());
      snap.storage = durability::kSnapshotSq8;
      snap.scales = sq8->scales();
      snap.offsets = sq8->offsets();
      snap.codes = sq8->codes();
      snap.trained = sq8->trained();
    } else if (storage_ == StorageKind::kPq) {
      const auto* pq = static_cast<const PqStore*>(shard.store.get());
      snap.storage = durability::kSnapshotPq;
      snap.pq_m = static_cast<uint32_t>(pq->m());
      snap.codebooks = pq->codebooks();
      snap.codes = pq->codes();
      snap.trained = pq->trained();
    } else {
      snap.storage = durability::kSnapshotFp32;
      snap.fp32 = shard.data->data();
      snap.trained = true;
    }
    d.wals[s] = std::move(writer_or).value();
    checkpoint_lsn = std::max(checkpoint_lsn, snap.lsn);
  }

  // Persist off-lock: writers append to the new segments meanwhile, and a
  // crash anywhere in here recovers from the old manifest + old segments
  // (still on disk) plus the new ones (>= old wal_seq, replayed too).
  for (size_t s = 0; s < shards_.size(); ++s) {
    DBLSH_RETURN_IF_ERROR(durability::SaveShardSnapshot(
        durability::SnapshotPath(d.dir, s), snaps[s]));
  }
  durability::Manifest manifest;
  manifest.shards = static_cast<uint32_t>(shards_.size());
  manifest.dim = static_cast<uint32_t>(dim_);
  manifest.storage = SnapshotStorageOf(storage_);
  manifest.wal_seq = new_seq;
  manifest.checkpoint_lsn = checkpoint_lsn;
  DBLSH_RETURN_IF_ERROR(durability::SaveManifest(d.dir, manifest));

  // Committed (manifest renamed): the superseded segments are garbage —
  // except those a replication pin still needs (a subscribed follower may
  // be mid-way through an older generation).
  uint64_t gc_before = new_seq;
  for (const auto& [pin, floor] : d.wal_pins) {
    gc_before = std::min(gc_before, floor);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (const uint64_t seq : durability::ListWalSegments(d.dir, s)) {
      if (seq < gc_before) {
        std::remove(durability::WalPath(d.dir, s, seq).c_str());
      }
    }
  }
  d.wal_seq = new_seq;
  d.checkpoints.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

CollectionDurabilityInfo Collection::Durability() const {
  CollectionDurabilityInfo info;
  if (durability_ == nullptr) return info;
  info.enabled = true;
  info.dir = durability_->dir;
  info.compact_threshold = durability_->compact_threshold;
  info.checkpoints =
      durability_->checkpoints.load(std::memory_order_relaxed);
  info.compactions =
      durability_->compactions.load(std::memory_order_relaxed);
  info.wal_appends =
      durability_->wal_appends.load(std::memory_order_relaxed);
  info.replayed_records = durability_->replayed;
  info.recovery_ms = durability_->recovery_ms;
  return info;
}

void Collection::SetReadOnly(const std::string& primary_hint) {
  read_only_message_ = "read-only replica; writes go to " + primary_hint;
  read_only_.store(true, std::memory_order_release);
}

std::vector<uint64_t> Collection::ShardAppliedLsns() const {
  std::vector<uint64_t> out(shards_.size(), 0);
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_lock lock(shards_[s]->mutex);
    out[s] = shards_[s]->applied_lsn;
  }
  return out;
}

uint64_t Collection::AcquireWalPin(uint64_t min_seq) {
  if (durability_ == nullptr) return 0;
  std::lock_guard lock(durability_->checkpoint_mutex);
  const uint64_t pin = durability_->next_pin++;
  durability_->wal_pins[pin] = min_seq;
  return pin;
}

void Collection::UpdateWalPin(uint64_t pin, uint64_t min_seq) {
  if (durability_ == nullptr || pin == 0) return;
  std::lock_guard lock(durability_->checkpoint_mutex);
  auto it = durability_->wal_pins.find(pin);
  if (it != durability_->wal_pins.end()) it->second = min_seq;
}

void Collection::ReleaseWalPin(uint64_t pin) {
  if (durability_ == nullptr || pin == 0) return;
  std::lock_guard lock(durability_->checkpoint_mutex);
  durability_->wal_pins.erase(pin);
}

Status Collection::ApplyReplicatedRecord(size_t shard_index,
                                         const durability::WalRecord& rec) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument(
        "replication: shard " + std::to_string(shard_index) +
        " out of range (collection has " + std::to_string(shards_.size()) +
        " shards)");
  }
  Shard& shard = *shards_[shard_index];
  std::unique_lock lock(shard.mutex);
  // A retrain record shares its triggering mutation's LSN (ordered after
  // it), so at exactly the applied LSN a retrain must still apply — the
  // feed redelivers it on resume, and re-applying one is a no-op.
  const bool retrain_at_head = rec.op == durability::WalOp::kRetrain &&
                               rec.lsn == shard.applied_lsn;
  if (rec.lsn <= shard.applied_lsn && !retrain_at_head) {
    return Status::OK();  // duplicate delivery after a reconnect
  }
  size_t keep = 0;
  if (durability::FailPoints::Instance().Hit(durability::kFailReplicationApply,
                                             &keep)) {
    return Status::IoError("replication: injected crash applying lsn " +
                           std::to_string(rec.lsn));
  }

  DBLSH_RETURN_IF_ERROR(ApplyRecordLocked(shard_index, rec));
  CommitLocked(shard, rec.lsn);
  // The follower's own WAL carries the primary's LSN, so a restart
  // recovers locally and re-subscribes from exactly where it stopped.
  const Status logged = AppendWalLocked(
      shard_index, rec.lsn, rec.op, rec.id,
      rec.op == durability::WalOp::kUpsert ? rec.vec.data() : nullptr);
  MaybeRebuildLocked(shard_index);
  return logged;
}

Status Collection::ApplyRecordLocked(size_t shard_index,
                                     const durability::WalRecord& rec) {
  Shard& shard = *shards_[shard_index];
  auto diverged = [&](const std::string& what) {
    return Status::Corruption("shard " + std::to_string(shard_index) +
                              " diverges from its log at lsn " +
                              std::to_string(rec.lsn) + ": " + what);
  };
  switch (rec.op) {
    case durability::WalOp::kRetrain:
      // Deterministic params-from-codes retrain: reproduces the exact code
      // bytes the primary logged. The codes changed under every built
      // index; force the rebuild the primary ran in the same commit.
      shard.store->RetrainQuantizer();
      for (Slot& slot : shard.slots) {
        if (slot.built) slot.staleness = slot.rebuild_threshold;
      }
      return Status::OK();
    case durability::WalOp::kTrim: {
      const size_t trimmed = shard.store->TrimTombstonedTail();
      if (trimmed != rec.id) {
        return diverged("trim removed " + std::to_string(trimmed) +
                        " rows, log recorded " + std::to_string(rec.id));
      }
      // The trim and the index rebuilds share this critical section, like
      // RunCompaction on the primary: an index still referencing a trimmed
      // row would hand out ids past the new frontier.
      std::optional<ScopedDecodeView> view;
      for (Slot& slot : shard.slots) {
        if (!slot.built) continue;
        if (shard.data->live_rows() == 0) {
          slot.built = false;  // lazy build at the next mutation
          slot.staleness = 0;
          continue;
        }
        BuildSlotLocked(shard, slot, &view);
      }
      return Status::OK();
    }
    case durability::WalOp::kDelete:
    case durability::WalOp::kUpsert:
      break;
    default:
      return diverged("unknown op " +
                      std::to_string(static_cast<unsigned>(rec.op)));
  }
  if (ShardOfId(rec.id) != shard_index) {
    return diverged("id " + std::to_string(rec.id) + " belongs to shard " +
                    std::to_string(ShardOfId(rec.id)));
  }
  const uint32_t local = LocalOfId(rec.id);
  if (rec.op == durability::WalOp::kDelete) {
    if (Status st = EraseRowLocked(shard, local); !st.ok()) {
      return diverged(st.ToString());
    }
    return Status::OK();
  }
  if (rec.vec.size() != dim_) {
    return diverged("upsert payload has " + std::to_string(rec.vec.size()) +
                    " floats, collection serves " + std::to_string(dim_));
  }
  if (local < shard.data->rows() && !shard.data->IsDeleted(local)) {
    // In-place replace: erase + insert fused, exactly like Upsert(id) —
    // the LIFO free-list hands the slot straight back.
    if (Status st = EraseRowLocked(shard, local); !st.ok()) {
      return diverged(st.ToString());
    }
  }
  const uint32_t got = InsertRowLocked(shard, rec.vec.data());
  if (got != local) {
    return diverged("insert landed on local row " + std::to_string(got) +
                    ", log recorded " + std::to_string(local));
  }
  return Status::OK();
}

void Collection::CommitLocked(Shard& shard, uint64_t lsn) {
  for (Slot& slot : shard.slots) {
    // Updatable built slots absorbed the mutation structurally
    // (InsertRowLocked / EraseRowLocked); everyone else just got staler.
    // Under quantized storage every slot is static — in-place index
    // maintenance reads fp32 rows the store has released — so all age.
    if (quantized_ || !(slot.built && slot.index->SupportsUpdates())) {
      ++slot.staleness;
    }
  }
  ++shard.version;
  shard.approx_rows.store(shard.data->rows(), std::memory_order_relaxed);
  shard.approx_free.store(shard.data->free_slots().size(),
                          std::memory_order_relaxed);
  shard.applied_lsn = lsn;
  // A primary's LSN came from the epoch counter itself (no-op here);
  // replay and replication raise the counter to the logged LSN.
  uint64_t cur = epoch_.load(std::memory_order_relaxed);
  while (cur < lsn &&
         !epoch_.compare_exchange_weak(cur, lsn, std::memory_order_acq_rel)) {
  }
}

Status Collection::AppendWalLocked(size_t shard_index, uint64_t lsn,
                                   durability::WalOp op, uint32_t id,
                                   const float* vec) {
  if (durability_ == nullptr) return Status::OK();
  durability::WalWriter* writer = durability_->wals[shard_index].get();
  if (writer == nullptr) {
    return Status::IoError(
        "wal: no live segment for shard " + std::to_string(shard_index) +
        " (a failed checkpoint rotation poisoned this collection)");
  }
  DBLSH_RETURN_IF_ERROR(writer->Append(lsn, op, id, vec));
  durability_->wal_appends.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Collection::EraseRowLocked(Shard& shard, uint32_t local) {
  DBLSH_RETURN_IF_ERROR(shard.store->EraseRow(local));
  // In-place index maintenance is fp32-only (quantized slots are static
  // and rebuild from the decode view when staleness hits the threshold).
  if (quantized_) return Status::OK();
  for (Slot& slot : shard.slots) {
    if (!slot.built || !slot.index->SupportsUpdates()) continue;
    if (!slot.index->Erase(local).ok()) {
      // Self-heal: a structural failure leaves that one index incoherent;
      // forcing its staleness to the threshold makes the commit rebuild it
      // over the live rows without unwinding the committed dataset state.
      slot.staleness = slot.rebuild_threshold;
    }
  }
  return Status::OK();
}

uint32_t Collection::InsertRowLocked(Shard& shard, const float* vec) {
  const uint32_t local = shard.store->InsertRow(vec, dim_);
  if (quantized_) return local;
  for (Slot& slot : shard.slots) {
    if (!slot.built || !slot.index->SupportsUpdates()) continue;
    if (slot.staleness >= slot.rebuild_threshold) continue;  // rebuilding
    if (!slot.index->Insert(local).ok()) {
      slot.staleness = slot.rebuild_threshold;  // self-heal, as above
    }
  }
  return local;
}

void Collection::BuildSlotLocked(Shard& shard, Slot& slot,
                                 std::optional<ScopedDecodeView>* view) {
  // Quantized storage: the first build of a pass materializes the decoded
  // fp32 view, later builds in the pass reuse it, and the caller's
  // optional releases it when the pass ends.
  if (quantized_ && !view->has_value()) view->emplace(shard.store.get());
  if (Status s = slot.index->Build(shard.data); !s.ok()) {
    // A failed (re)build leaves the slot out of service but the
    // collection consistent: mark unbuilt so routing skips it, record the
    // error for Indexes(), and retry at the next mutation. The mutation
    // that got us here stays committed.
    slot.built = false;
    slot.build_error = s.ToString();
    return;
  }
  if (slot.built) ++slot.rebuilds;  // lazy first builds are not rebuilds
  slot.built = true;
  slot.staleness = 0;
  slot.build_error.clear();
}

void Collection::SwapInLocked(Shard& shard, Slot& slot,
                              std::unique_ptr<AnnIndex> replacement) {
  if (!replacement->RebindData(shard.data).ok()) {
    // Index type without rebind support: rebuild the slot's own instance
    // under the lock instead (correct, just blocking).
    std::optional<ScopedDecodeView> view;
    BuildSlotLocked(shard, slot, &view);
    return;
  }
  slot.index = std::move(replacement);
  slot.built = true;
  slot.staleness = 0;
  ++slot.rebuilds;
  slot.build_error.clear();
}

Status Collection::AddIndex(const std::string& index_spec) {
  auto parsed = IndexFactory::Spec::Parse(index_spec);
  if (!parsed.ok()) return parsed.status();
  const IndexFactory::Spec& spec = parsed.value();

  // Peel off the slot-level keys before the factory sees the spec.
  std::string slot_name;
  size_t rebuild_threshold = kDefaultRebuildThreshold;
  std::string method_spec = spec.name();
  for (const auto& [key, value] : spec.values()) {
    if (key == "name") {
      slot_name = value;
      continue;
    }
    if (key == "rebuild_threshold") {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || value.front() == '-') {
        return Status::InvalidArgument(
            "collection key \"rebuild_threshold\" expects a non-negative "
            "integer, got \"" + value + "\"");
      }
      rebuild_threshold = std::max<size_t>(1, static_cast<size_t>(n));
      continue;
    }
    method_spec += "," + key + "=" + value;
  }

  // One instance per shard (each shard indexes its own partition).
  const size_t num_shards = shards_.size();
  std::vector<std::unique_ptr<AnnIndex>> instances;
  instances.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto made = IndexFactory::Make(method_spec);
    if (!made.ok()) return made.status();
    instances.push_back(std::move(made).value());
  }
  if (slot_name.empty()) slot_name = instances[0]->Name();

  // Write transaction over every shard; ascending order keeps concurrent
  // AddIndex calls deadlock-free against the single-shard writers.
  std::vector<std::unique_lock<WriterPriorityMutex>> locks;
  locks.reserve(num_shards);
  for (auto& shard : shards_) locks.emplace_back(shard->mutex);
  for (const Slot& slot : shards_[0]->slots) {
    if (slot.name == slot_name) {
      return Status::InvalidArgument(
          "collection already has an index named \"" + slot_name +
          "\"; disambiguate with a name= spec key");
    }
  }

  // First builds of the non-empty shards run in parallel on the executor
  // (the build bodies take no locks; the caller holds them all). Under
  // quantized storage each shard materializes a decoded fp32 view for the
  // duration of its build — builds read matrix().row(), stores keep codes.
  std::vector<Status> builds(num_shards, Status::OK());
  executor_->ParallelFor(num_shards, [&](size_t s) {
    if (shards_[s]->data->live_rows() > 0) {
      ScopedDecodeView view(shards_[s]->store.get());
      builds[s] = instances[s]->Build(shards_[s]->data);
    }
  });
  for (const Status& status : builds) {
    if (!status.ok()) return status;  // nothing published on any shard
  }

  for (size_t s = 0; s < num_shards; ++s) {
    Slot slot;
    slot.name = slot_name;
    slot.method_spec = method_spec;
    slot.index = std::move(instances[s]);
    slot.built = shards_[s]->data->live_rows() > 0;
    slot.rebuild_threshold = rebuild_threshold;
    slot.query_mutex = std::make_unique<std::mutex>();
    // Empty shard: stay unbuilt; the shard's first mutation triggers the
    // lazy build (MaybeRebuildLocked).
    shards_[s]->slots.push_back(std::move(slot));
  }
  return Status::OK();
}

Status Collection::AddPrebuiltIndex(const std::string& name,
                                    std::unique_ptr<AnnIndex> index,
                                    size_t rebuild_threshold) {
  if (index == nullptr) {
    return Status::InvalidArgument("AddPrebuiltIndex: index is null");
  }
  if (shards_.size() > 1) {
    return Status::InvalidArgument(
        "AddPrebuiltIndex requires shards=1: a prebuilt index speaks the "
        "global id space, which only matches shard 0 of an unsharded "
        "collection");
  }
  if (quantized_) {
    return Status::InvalidArgument(
        "AddPrebuiltIndex requires storage=fp32: a prebuilt index holds "
        "state computed over the fp32 payload the quantized store has "
        "released; load into an fp32 collection or AddIndex to rebuild "
        "from codes");
  }
  Shard& shard = *shards_[0];
  std::unique_lock lock(shard.mutex);
  for (const Slot& slot : shard.slots) {
    if (slot.name == name) {
      return Status::InvalidArgument(
          "collection already has an index named \"" + name + "\"");
    }
  }
  Slot slot;
  slot.name = name;
  slot.method_spec = index->Name() + " (prebuilt)";
  slot.index = std::move(index);
  slot.built = true;
  slot.rebuild_threshold = std::max<size_t>(1, rebuild_threshold);
  slot.query_mutex = std::make_unique<std::mutex>();
  shard.slots.push_back(std::move(slot));
  return Status::OK();
}

void Collection::MaybeRebuildLocked(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::optional<ScopedDecodeView> view;  // one decode view per pass
  for (size_t i = 0; i < shard.slots.size(); ++i) {
    Slot& slot = shard.slots[i];
    const bool lazy_first_build = !slot.built && shard.data->live_rows() > 0;
    const bool threshold_hit =
        slot.built && slot.staleness >= slot.rebuild_threshold;
    if (!lazy_first_build && !threshold_hit) continue;
    if (background_rebuild_ && threshold_hit) {
      // Offload: the writer keeps going; the executor snapshots, builds
      // and swaps in under this lock later (RunBackgroundRebuild). Lazy
      // first builds stay inline — there is no old index to keep serving.
      if (!slot.rebuild_scheduled) {
        slot.rebuild_scheduled = true;
        ScheduleRebuild(shard_index, i);
      }
      continue;
    }
    BuildSlotLocked(shard, slot, &view);
  }
}

void Collection::ScheduleRebuild(size_t shard_index, size_t slot_index) {
  {
    std::lock_guard lock(bg_mutex_);
    if (closing_) {
      // A mutation racing the destructor is a caller bug; stay safe.
      shards_[shard_index]->slots[slot_index].rebuild_scheduled = false;
      return;
    }
    ++bg_inflight_;
  }
  executor_->Schedule([this, shard_index, slot_index] {
    RunBackgroundRebuild(shard_index, slot_index);
    // Decrement and notify under the lock: the destructor may tear the
    // collection down the instant it observes bg_inflight_ == 0, and it
    // can only observe that after this critical section fully releases —
    // a notify outside the lock would race it into use-after-free.
    std::lock_guard lock(bg_mutex_);
    --bg_inflight_;
    bg_cv_.notify_all();
  });
}

void Collection::RunBackgroundRebuild(size_t shard_index, size_t slot_index) {
  Shard& shard = *shards_[shard_index];
  for (int attempt = 0; attempt < 3; ++attempt) {
    // 1. Snapshot the shard under the shared lock (readers keep serving,
    //    the writer is not excluded for longer than a matrix copy). Under
    //    quantized storage the snapshot is the store's decoded fp32
    //    reconstruction (DecodedCopy); for fp32 it is the byte-identical
    //    matrix copy this always was.
    FloatMatrix snapshot;
    uint64_t version = 0;
    std::string method_spec;
    {
      std::shared_lock lock(shard.mutex);
      snapshot = shard.store->DecodedCopy();
      version = shard.version;
      method_spec = shard.slots[slot_index].method_spec;
    }

    // 2. Build a replacement index over the snapshot, off every lock —
    //    this is the expensive part the writer no longer pays for.
    auto made = IndexFactory::Make(method_spec);
    Status built =
        made.ok() ? made.value()->Build(&snapshot) : made.status();

    // 3. Swap in under the write lock, but only if the shard is exactly
    //    as the snapshot captured it; otherwise retry with a fresh copy.
    std::unique_lock lock(shard.mutex);
    Slot& slot = shard.slots[slot_index];
    if (!built.ok()) {
      // Unlike an inline rebuild failure, the old index is still coherent
      // (tombstones keep filtering) — keep it serving and surface the
      // error; the next commit past the threshold re-schedules us.
      slot.build_error = built.ToString();
      slot.rebuild_scheduled = false;
      return;
    }
    if (shard.version != version) continue;  // mutated mid-build: retry
    SwapInLocked(shard, slot, std::move(made).value());
    slot.rebuild_scheduled = false;
    return;
  }
  // The writer mutated through every attempt. Yield: staleness is still at
  // or past the threshold, so the very next commit re-schedules a rebuild.
  std::unique_lock lock(shard.mutex);
  shard.slots[slot_index].rebuild_scheduled = false;
}

void Collection::WaitForRebuilds() const {
  for (;;) {
    {
      std::unique_lock lock(bg_mutex_);
      if (bg_cv_.wait_for(lock, std::chrono::milliseconds(1),
                          [&] { return bg_inflight_ == 0; })) {
        return;
      }
    }
    // Lend this thread to the executor so a narrow pool cannot starve the
    // very task being awaited (the caller holds no collection locks here).
    executor_->RunOnePendingTask();
  }
}

Status Collection::CommitMutationLocked(size_t shard_index,
                                        durability::WalOp op,
                                        uint32_t global_id, const float* vec) {
  Shard& shard = *shards_[shard_index];
  // Committed: exactly one epoch per successful mutation, build failures
  // notwithstanding (failing slots are out of service, not blocking).
  // Under durability the post-increment epoch value is the mutation's LSN.
  const uint64_t lsn = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  CommitLocked(shard, lsn);
  // Log-after-apply is sound here because disk state only changes at
  // checkpoints: a record that fails to land is simply never replayed,
  // and the poisoned writer keeps every *later* mutation unlogged too,
  // so the durable history stays a prefix of the acknowledged one.
  Status logged = AppendWalLocked(shard_index, lsn, op, global_id, vec);

  // SQ8 range retraining rides the inline threshold rebuild: when this
  // mutation pushes a built slot to its rebuild threshold under quantized
  // storage, re-derive the quantizer range from the current rows before
  // the rebuild below, and log the retrain (same LSN as the mutation,
  // ordered after it) so replay and replication reproduce the exact code
  // bytes. Background rebuilds skip the retrain: their timing is
  // nondeterministic, and replayability demands the log alone decide when
  // codes change.
  if (quantized_ && !background_rebuild_) {
    const bool threshold_hit = std::any_of(
        shard.slots.begin(), shard.slots.end(), [](const Slot& slot) {
          return slot.built && slot.staleness >= slot.rebuild_threshold;
        });
    if (threshold_hit && shard.store->RetrainQuantizer() && logged.ok()) {
      logged = AppendWalLocked(shard_index, lsn, durability::WalOp::kRetrain,
                               0, nullptr);
    }
  }
  // The rebuild runs after any retrain so the new index is built over the
  // re-encoded codes.
  MaybeRebuildLocked(shard_index);
  MaybeCompactLocked(shard_index);
  return logged;
}

void Collection::MaybeCompactLocked(size_t shard_index) {
  if (durability_ == nullptr || durability_->compact_threshold <= 0.0) return;
  Shard& shard = *shards_[shard_index];
  if (shard.compact_scheduled) return;
  const size_t rows = shard.data->rows();
  if (rows == 0) return;
  const size_t dead = rows - shard.data->live_rows();
  if (dead <= shard.compact_floor) return;  // nothing new to reclaim
  if (static_cast<double>(dead) / static_cast<double>(rows) <
      durability_->compact_threshold) {
    return;
  }
  shard.compact_scheduled = true;
  ScheduleCompaction(shard_index);
}

void Collection::ScheduleCompaction(size_t shard_index) {
  {
    std::lock_guard lock(bg_mutex_);
    if (closing_) {
      shards_[shard_index]->compact_scheduled = false;
      return;
    }
    ++bg_inflight_;
  }
  executor_->Schedule([this, shard_index] {
    RunCompaction(shard_index);
    // Decrement and notify under the lock (same use-after-free hazard as
    // ScheduleRebuild: the destructor may proceed the instant it sees 0).
    std::lock_guard lock(bg_mutex_);
    --bg_inflight_;
    bg_cv_.notify_all();
  });
}

void Collection::RunCompaction(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  // Ends the task without landing; caller holds the write lock. Commits
  // that landed after the snapshot saw compact_scheduled set and skipped
  // the trigger, so when the version moved the check runs again for them
  // — otherwise a due compaction is lost once the writer goes quiet.
  uint64_t version = 0;
  auto give_up_locked = [&] {
    shard.compact_scheduled = false;
    if (shard.version != version) MaybeCompactLocked(shard_index);
  };
  bool landed = false;
  for (int attempt = 0; attempt < 3 && !landed; ++attempt) {
    // 1. Snapshot the shard under the shared lock — readers keep serving.
    FloatMatrix snapshot;
    std::vector<std::string> method_specs;
    {
      std::shared_lock lock(shard.mutex);
      snapshot = shard.store->DecodedCopy();
      version = shard.version;
      method_specs.reserve(shard.slots.size());
      for (const Slot& slot : shard.slots) {
        method_specs.push_back(slot.method_spec);
      }
    }

    // 2. Off-lock: trim the copy and build replacement indexes over the
    //    compacted geometry. Only trailing tombstones are physically
    //    reclaimable (live ids never move).
    const size_t snapshot_dead = snapshot.rows() - snapshot.live_rows();
    if (snapshot.TrimTombstonedTail() == 0) {
      std::unique_lock lock(shard.mutex);
      // Interior tombstones only: raise the floor to what the snapshot
      // saw so the trigger stays quiet until more deletes land, instead
      // of rescheduling forever.
      shard.compact_floor = snapshot_dead;
      give_up_locked();
      return;
    }
    std::vector<std::unique_ptr<AnnIndex>> replacements;
    replacements.reserve(method_specs.size());
    bool build_failed = false;
    for (const std::string& spec : method_specs) {
      auto made = IndexFactory::Make(spec);
      Status built = made.ok() ? Status::OK() : made.status();
      if (built.ok() && snapshot.live_rows() > 0) {
        built = made.value()->Build(&snapshot);
      }
      if (!built.ok()) {
        build_failed = true;
        break;
      }
      replacements.push_back(std::move(made).value());
    }

    // 3. Land under the write lock if the shard did not mutate meanwhile.
    {
      std::unique_lock lock(shard.mutex);
      if (shard.version != version) continue;  // mutated mid-build: retry
      if (build_failed) {
        shard.compact_scheduled = false;  // keep serving uncompacted
        return;
      }
      const size_t trimmed = shard.store->TrimTombstonedTail();
      // The rewrite commits like a mutation and is logged so mutations
      // recorded after it replay against the compacted geometry (see
      // WalOp::kTrim). A failed append poisons the writer: the in-memory
      // trim stands, but nothing later is acked, so the durable history
      // stays consistent without it. The version bump also invalidates any
      // background rebuild racing us: its snapshot predates the trim.
      const uint64_t lsn = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
      CommitLocked(shard, lsn);
      (void)AppendWalLocked(shard_index, lsn, durability::WalOp::kTrim,
                            static_cast<uint32_t>(trimmed), nullptr);
      // The trim and the index swap share this critical section: an index
      // still referencing a trimmed row would hand out ids past the new
      // frontier, where IsDeleted no longer vouches for them.
      for (size_t i = 0; i < shard.slots.size(); ++i) {
        Slot& slot = shard.slots[i];
        if (shard.data->live_rows() == 0) {
          slot.built = false;  // lazy build at the next mutation
          slot.staleness = 0;
          continue;
        }
        SwapInLocked(shard, slot, std::move(replacements[i]));
      }
      shard.compact_floor = shard.data->rows() - shard.data->live_rows();
      shard.compact_scheduled = false;
      landed = true;
    }
  }
  if (!landed) {
    // The writer mutated through every attempt.
    std::unique_lock lock(shard.mutex);
    give_up_locked();
    return;
  }
  durability_->compactions.fetch_add(1, std::memory_order_relaxed);
  // Fold the rewrite into fresh snapshots; best-effort (the trim record
  // keeps replay correct even if this checkpoint never lands).
  (void)Checkpoint();
}

size_t Collection::PickInsertShard() const {
  const size_t num_shards = shards_.size();
  if (num_shards == 1) return 0;
  // Advisory reads: a racing writer can skew the balance by a row, never
  // the correctness (the chosen shard commits under its own lock).
  for (size_t s = 0; s < num_shards; ++s) {
    if (shards_[s]->approx_free.load(std::memory_order_relaxed) > 0) {
      return s;  // recycle before growing any shard
    }
  }
  size_t best = 0;
  size_t best_rows = std::numeric_limits<size_t>::max();
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t rows =
        shards_[s]->approx_rows.load(std::memory_order_relaxed);
    if (rows < best_rows) {
      best_rows = rows;
      best = s;
    }
  }
  return best;
}

Result<uint32_t> Collection::Upsert(const float* vec, size_t len) {
  if (read_only()) return Status::ReadOnly(read_only_message_);
  if (len != dim_) {
    return Status::InvalidArgument(
        "Upsert: vector has dimension " + std::to_string(len) +
        ", collection serves " + std::to_string(dim_));
  }
  const size_t shard_index = PickInsertShard();
  Shard& shard = *shards_[shard_index];
  std::unique_lock lock(shard.mutex);
  const uint32_t local = InsertRowLocked(shard, vec);
  const uint32_t global = GlobalId(shard_index, local);
  DBLSH_RETURN_IF_ERROR(
      CommitMutationLocked(shard_index, durability::WalOp::kUpsert, global,
                           vec));
  return global;
}

Result<uint32_t> Collection::Upsert(uint32_t id, const float* vec,
                                    size_t len) {
  if (read_only()) return Status::ReadOnly(read_only_message_);
  if (len != dim_) {
    return Status::InvalidArgument(
        "Upsert: vector has dimension " + std::to_string(len) +
        ", collection serves " + std::to_string(dim_));
  }
  const size_t shard_index = ShardOfId(id);
  const uint32_t local = LocalOfId(id);
  Shard& shard = *shards_[shard_index];
  std::unique_lock lock(shard.mutex);
  if (local >= shard.data->rows() || shard.data->IsDeleted(local)) {
    return Status::NotFound("Upsert: id " + std::to_string(id) +
                            " is not a live vector");
  }
  // Fused replace: tombstone + structural erase, then recycle the slot —
  // FloatMatrix's free-list is LIFO, so InsertRow hands the same id back —
  // and re-insert. All under one write transaction: no reader ever sees
  // the id missing.
  DBLSH_RETURN_IF_ERROR(EraseRowLocked(shard, local));
  const uint32_t recycled = InsertRowLocked(shard, vec);
  assert(recycled == local &&
         "LIFO free-list must hand the slot straight back");
  const uint32_t global = GlobalId(shard_index, recycled);
  DBLSH_RETURN_IF_ERROR(
      CommitMutationLocked(shard_index, durability::WalOp::kUpsert, global,
                           vec));
  return global;
}

Status Collection::Delete(uint32_t id) {
  if (read_only()) return Status::ReadOnly(read_only_message_);
  const size_t shard_index = ShardOfId(id);
  const uint32_t local = LocalOfId(id);
  Shard& shard = *shards_[shard_index];
  std::unique_lock lock(shard.mutex);
  if (local >= shard.data->rows()) {
    return Status::NotFound("Delete: id " + std::to_string(id) +
                            " was never assigned");
  }
  DBLSH_RETURN_IF_ERROR(
      EraseRowLocked(shard, local));  // NotFound when already gone
  return CommitMutationLocked(shard_index, durability::WalOp::kDelete, id,
                              nullptr);
}

int Collection::RouteLocked(const Shard& shard,
                            const std::string& index_name,
                            Status* why) const {
  if (!index_name.empty()) {
    for (size_t i = 0; i < shard.slots.size(); ++i) {
      if (shard.slots[i].name != index_name) continue;
      if (!shard.slots[i].built) {
        *why = Status::InvalidArgument(
            "collection index \"" + index_name +
            "\" is not built yet (collection was empty when it was added)");
        return -1;
      }
      return static_cast<int>(i);
    }
    *why = Status::NotFound("collection has no index named \"" + index_name +
                            "\"");
    return -1;
  }
  // Best-capable routing: the freshest built slot, insertion order as the
  // tie-break (so callers list their preferred method first).
  int best = -1;
  for (size_t i = 0; i < shard.slots.size(); ++i) {
    if (!shard.slots[i].built) continue;
    if (best < 0 || shard.slots[i].staleness <
                        shard.slots[static_cast<size_t>(best)].staleness) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) {
    *why = Status::InvalidArgument(
        shard.slots.empty() ? "collection has no indexes; AddIndex first"
                            : "collection has no built index yet; Upsert "
                              "data first");
  }
  return best;
}

Result<QueryResponse> Collection::SearchShard(size_t shard_index,
                                              const float* query,
                                              const QueryRequest& request,
                                              const std::string& index_name,
                                              Status* unroutable) const {
  const Shard& shard = *shards_[shard_index];
  std::shared_lock lock(shard.mutex);
  if (shard.slots.empty()) {
    return Status::InvalidArgument("collection has no indexes; AddIndex "
                                   "first");
  }
  Status why = Status::OK();
  const int route = RouteLocked(shard, index_name, &why);
  // An unknown name is NotFound even when this shard happens to be empty
  // (slot lists are identical across shards).
  if (why.code() == StatusCode::kNotFound) return why;
  if (shard.data->live_rows() == 0) {
    // Nothing to contribute, not an error. A shard with no built slot
    // (it never held rows) fails the search only if every shard does.
    *unroutable = why;
    return QueryResponse{};
  }
  if (route < 0) return why;
  const Slot& slot = shard.slots[static_cast<size_t>(route)];

  // Quantized storage: run the index at an inflated k, then re-rank that
  // candidate list with the store's exact distance and keep the caller's
  // k. Truncating to k per shard keeps the fan-out merge exact — the
  // re-ranked list is this shard's true (store-exact) top-k.
  const size_t effective_k = quantized_ ? request.k * rerank_ : request.k;
  auto serve = [&](const QueryRequest& effective) -> QueryResponse {
    QueryResponse response;
    if (slot.index->SupportsConcurrentQueries()) {
      response = slot.index->Search(query, effective);
    } else {
      // Thread-compatible read path: readers of this slot serialize among
      // themselves (writers are already excluded by the shared lock).
      std::lock_guard slot_lock(*slot.query_mutex);
      response = slot.index->Search(query, effective);
    }
    if (quantized_) RerankLocked(shard, query, request.k, &response);
    return response;
  };

  // With one shard local ids are global ids, so the filter passes through.
  const bool rewrite_filter = !request.filter.empty() && shards_.size() > 1;
  if (!rewrite_filter && effective_k == request.k) return serve(request);
  // The shard's index speaks local ids; rewrite the caller's global-id
  // filter accordingly. Only the filter (and the quantized-storage k
  // inflation) changes — keep the scalar overrides in sync with
  // QueryRequest's field list.
  QueryRequest local;
  local.k = effective_k;
  local.candidate_budget = request.candidate_budget;
  local.r0 = request.r0;
  if (rewrite_filter) {
    const QueryFilter* global = &request.filter;  // outlives the fan-out
    local.filter = QueryFilter::Of([this, global, shard_index](uint32_t lid) {
      return global->Admits(GlobalId(shard_index, lid));
    });
  } else {
    local.filter = request.filter;
  }
  return serve(local);
}

void Collection::RerankLocked(const Shard& shard, const float* query,
                              size_t k, QueryResponse* response) const {
  // Exact pass over the (inflated) candidate list: rescore with the raw
  // fp32 query against each row's stored codes — no query-quantization
  // error — then keep the best k under the same (dist, id) order the
  // TopKHeap uses, so ties resolve identically to an exact index.
  for (Neighbor& neighbor : response->neighbors) {
    neighbor.dist = std::sqrt(
        shard.store->ExactL2Squared(query, neighbor.id));
  }
  std::sort(response->neighbors.begin(), response->neighbors.end());
  if (response->neighbors.size() > k) response->neighbors.resize(k);
}

QueryResponse Collection::MergeShardResponses(
    std::vector<QueryResponse> responses, size_t k) const {
  QueryResponse merged;
  TopKHeap heap(k);
  for (size_t s = 0; s < responses.size(); ++s) {
    for (const Neighbor& neighbor : responses[s].neighbors) {
      // Exact merge: within a shard, local id order equals global id
      // order, so each shard's top-k (local tie-break) contains every
      // global top-k member of that shard; pushing with global ids
      // reproduces the single-shard (dist, id) tie-break exactly.
      heap.Push(neighbor.dist, GlobalId(s, neighbor.id));
    }
    merged.stats.candidates_verified += responses[s].stats.candidates_verified;
    merged.stats.points_accessed += responses[s].stats.points_accessed;
    merged.stats.rounds += responses[s].stats.rounds;
    merged.stats.window_queries += responses[s].stats.window_queries;
  }
  merged.neighbors = heap.TakeSorted();
  return merged;
}

Result<QueryResponse> Collection::Search(const float* query,
                                         const QueryRequest& request,
                                         const std::string& index_name) const {
  auto got = SearchBatch(
      FloatMatrix(1, dim_, std::vector<float>(query, query + dim_)), request,
      index_name);
  if (!got.ok()) return got.status();
  return std::move(got.value()[0]);
}

Result<std::vector<QueryResponse>> Collection::SearchBatch(
    const FloatMatrix& queries, const QueryRequest& request,
    const std::string& index_name, size_t num_threads) const {
  if (!queries.empty() && queries.cols() != dim_) {
    return Status::InvalidArgument(
        "SearchBatch: queries have dimension " +
        std::to_string(queries.cols()) + ", collection serves " +
        std::to_string(dim_));
  }
  // Grid fan-out: every (query, shard) cell is an independent task, so a
  // slow shard never stalls the other shards' progress on later queries.
  const size_t q_count = queries.rows();
  const size_t num_shards = shards_.size();
  std::vector<QueryResponse> cells(q_count * num_shards);
  std::vector<Status> statuses(q_count * num_shards, Status::OK());
  std::vector<Status> unroutable(q_count * num_shards, Status::OK());
  executor_->ParallelFor(
      q_count * num_shards,
      [&](size_t cell) {
        const size_t q = cell / num_shards;
        const size_t s = cell % num_shards;
        auto got = SearchShard(s, queries.row(q), request, index_name,
                               &unroutable[cell]);
        if (got.ok()) {
          cells[cell] = std::move(got).value();
        } else {
          statuses[cell] = got.status();
        }
      },
      num_threads);

  std::vector<QueryResponse> out;
  out.reserve(q_count);
  for (size_t q = 0; q < q_count; ++q) {
    const size_t first = q * num_shards;
    size_t unrouted = 0;
    for (size_t cell = first; cell < first + num_shards; ++cell) {
      if (!statuses[cell].ok()) return statuses[cell];
      if (!unroutable[cell].ok()) ++unrouted;
    }
    // InvalidArgument only when no shard had a built slot to route to.
    if (unrouted == num_shards) return unroutable[first];
    std::vector<QueryResponse> row(
        std::make_move_iterator(cells.begin() + first),
        std::make_move_iterator(cells.begin() + first + num_shards));
    out.push_back(MergeShardResponses(std::move(row), request.k));
  }
  return out;
}

size_t Collection::size() const {
  size_t live = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    live += shard->data->live_rows();
  }
  return live;
}

size_t Collection::dim() const { return dim_; }

uint64_t Collection::epoch() const {
  return epoch_.load(std::memory_order_acquire);
}

std::vector<CollectionIndexInfo> Collection::Indexes() const {
  // Shared locks over every shard, ascending (consistent with AddIndex).
  std::vector<std::shared_lock<WriterPriorityMutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);

  std::vector<CollectionIndexInfo> infos;
  infos.reserve(shards_[0]->slots.size());
  for (size_t i = 0; i < shards_[0]->slots.size(); ++i) {
    const Slot& first = shards_[0]->slots[i];
    CollectionIndexInfo info;
    info.name = first.name;
    info.method = first.index->Name();
    info.supports_updates = first.index->SupportsUpdates();
    info.concurrent_queries = first.index->SupportsConcurrentQueries();
    info.rebuild_threshold = first.rebuild_threshold;
    // Built aggregate: some shard's instance serves, and no shard that has
    // content is left unbuilt. (A slot over an empty shard serves that
    // shard's zero rows exactly; it does not count against the aggregate.)
    bool any_built = false;
    bool all_nonempty_built = true;
    for (const auto& shard : shards_) {
      const Slot& slot = shard->slots[i];
      if (slot.built) any_built = true;
      if (!slot.built && shard->data->live_rows() > 0) {
        all_nonempty_built = false;
      }
      info.staleness = std::max(info.staleness, slot.staleness);
      info.rebuilds += slot.rebuilds;
      info.rebuild_inflight = info.rebuild_inflight || slot.rebuild_scheduled;
      if (info.build_error.empty()) info.build_error = slot.build_error;
    }
    info.built = any_built && all_nonempty_built;
    infos.push_back(std::move(info));
  }
  return infos;
}

const AnnIndex* Collection::GetIndex(const std::string& name,
                                     size_t shard_index) const {
  if (shard_index >= shards_.size()) return nullptr;
  const Shard& shard = *shards_[shard_index];
  std::shared_lock lock(shard.mutex);
  for (const Slot& slot : shard.slots) {
    if (slot.name == name) return slot.index.get();
  }
  return nullptr;
}

FloatMatrix Collection::Snapshot() const {
  const size_t num_shards = shards_.size();
  if (num_shards == 1) {
    std::shared_lock lock(shards_[0]->mutex);
    // DecodedCopy: the byte-identical matrix copy for fp32, the store's
    // fp32 reconstruction (same ids/tombstones) for quantized backends.
    return shards_[0]->store->DecodedCopy();
  }
  // Consistent cut: shared locks over every shard while re-assembling the
  // global id space (mutations are single-shard, so this is the same
  // guarantee a fan-out search sees, made simultaneous).
  std::vector<std::shared_lock<WriterPriorityMutex>> locks;
  locks.reserve(num_shards);
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);

  size_t rows = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t shard_rows = shards_[s]->data->rows();
    if (shard_rows > 0) {
      rows = std::max(rows, (shard_rows - 1) * num_shards + s + 1);
    }
  }
  FloatMatrix out(rows, dim_);
  for (size_t g = 0; g < rows; ++g) {
    const Shard& shard = *shards_[g % num_shards];
    const uint32_t local = LocalOfId(static_cast<uint32_t>(g));
    if (local < shard.data->rows()) {
      // DecodeRow instead of a raw row copy: quantized stores hold codes,
      // not fp32 payload (for fp32 this is the same copy as before).
      shard.store->DecodeRow(local, out.mutable_row(g));
    }
  }
  for (size_t g = 0; g < rows; ++g) {
    const Shard& shard = *shards_[g % num_shards];
    const uint32_t local = LocalOfId(static_cast<uint32_t>(g));
    // Ids past a shard's frontier were never assigned; report them (and
    // genuine tombstones) as erased so oracle scans skip them.
    if (local >= shard.data->rows() || shard.data->IsDeleted(local)) {
      Status erased = out.EraseRow(g);
      assert(erased.ok());
      (void)erased;
    }
  }
  return out;
}

CollectionStorageInfo Collection::Storage() const {
  // Shared locks over every shard, ascending (consistent with Indexes()).
  std::vector<std::shared_lock<WriterPriorityMutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);

  CollectionStorageInfo info;
  info.kind = StorageKindName(storage_);
  info.bytes_per_vector = shards_[0]->store->bytes_per_vector();
  info.rerank = quantized_ ? rerank_ : 0;
  info.shard_resident_bytes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const size_t bytes = shard->store->resident_bytes();
    info.shard_resident_bytes.push_back(bytes);
    info.resident_bytes += bytes;
  }
  return info;
}

}  // namespace dblsh
