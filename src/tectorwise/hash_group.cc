#include "tectorwise/hash_group.h"

#include <cstdint>

namespace vcq::tectorwise {

using runtime::Hashmap;

HashGroup::HashGroup(Shared* shared, size_t worker_id, size_t worker_count,
                     std::unique_ptr<Operator> child, const ExecContext& ctx)
    : shared_(shared),
      worker_id_(worker_id),
      worker_count_(worker_count),
      child_(std::move(child)),
      ctx_(ctx) {
  // Governed runs charge group-entry chunks to the query ledger and expose
  // the allocation as a named fault point.
  pool_.Bind(ctx_.ledger, ctx_.fault, "tw.group.alloc");
  merge_pool_.Bind(ctx_.ledger, ctx_.fault, "tw.group.merge");
  const size_t v = ctx_.vector_size;
  hashes_.Reset(v * sizeof(uint64_t));
  pos_.Reset(v * sizeof(pos_t));
  groups_.Reset(v * sizeof(std::byte*));
  cand_.Reset(v * sizeof(Hashmap::EntryHeader*));
  cand_k_.Reset(v * sizeof(pos_t));
  cand_pos_.Reset(v * sizeof(pos_t));
  match_.Reset(v * sizeof(uint8_t));
  emit_entries_.Reset(v * sizeof(std::byte*));
  local_ht_.SetSize(2048);
  compactor_.Configure(ctx_);
}

size_t HashGroup::AddAgg(Slot* col, AggKind kind) {
  if (agg_begin_ == 0) agg_begin_ = agg_end_ = AlignUp(key_end_, 8);
  const size_t offset = agg_end_;
  agg_end_ += sizeof(int64_t);
  aggs_.push_back(AggDecl{offset, col, kind});
  if (col != nullptr) CompactColumn<int64_t>(ctx_, compactor_, col);
  return offset;
}

size_t HashGroup::AddSumAgg(Slot* col) { return AddAgg(col, AggKind::kSum); }

size_t HashGroup::AddCountAgg() { return AddAgg(nullptr, AggKind::kCount); }

size_t HashGroup::AddMinAgg(Slot* col) { return AddAgg(col, AggKind::kMin); }

size_t HashGroup::AddMaxAgg(Slot* col) { return AddAgg(col, AggKind::kMax); }

void HashGroup::GrowLocalTable() {
  local_ht_.SetSize(local_count_ * 4);
  auto& spill = shared_->spills[worker_id_];
  for (auto& part : spill.parts) {
    for (std::byte* e : part)
      local_ht_.InsertUnlocked(reinterpret_cast<Hashmap::EntryHeader*>(e));
  }
}

std::byte* HashGroup::InsertGroup(uint64_t hash, pos_t p) {
  // Re-check the chain first: an earlier miss in this batch (or a tag false
  // negative against a just-grown table) may have created the group already.
  for (Hashmap::EntryHeader* e = local_ht_.FindChain(hash); e != nullptr;
       e = e->next) {
    if (e->hash != hash) continue;
    auto* bytes = reinterpret_cast<std::byte*>(e);
    bool equal = true;
    for (const KeySteps& key : key_steps_) {
      if (!key.equal(bytes, p)) {
        equal = false;
        break;
      }
    }
    if (equal) return bytes;
  }
  if ((local_count_ + 1) * 2 > local_ht_.capacity()) GrowLocalTable();

  auto* entry = static_cast<std::byte*>(pool_.Allocate(entry_size()));
  auto* header = reinterpret_cast<Hashmap::EntryHeader*>(entry);
  header->next = nullptr;
  header->hash = hash;
  // Zero the key region (memcmp-comparable padding) and the aggregates,
  // then overwrite min/max accumulators with their fold identities.
  std::memset(entry + sizeof(Hashmap::EntryHeader), 0,
              entry_size() - sizeof(Hashmap::EntryHeader));
  for (const AggDecl& agg : aggs_) {
    if (agg.kind == AggKind::kMin) {
      *reinterpret_cast<int64_t*>(entry + agg.offset) = INT64_MAX;
    } else if (agg.kind == AggKind::kMax) {
      *reinterpret_cast<int64_t*>(entry + agg.offset) = INT64_MIN;
    }
  }
  for (const KeySteps& key : key_steps_) key.init(entry, p);
  local_ht_.InsertUnlocked(header);
  shared_->spills[worker_id_].parts[PartitionOf(hash)].push_back(entry);
  ++local_count_;
  return entry;
}

void HashGroup::FindGroups(size_t n) {
  uint64_t* hashes = hashes_.As<uint64_t>();
  pos_t* pos = pos_.As<pos_t>();
  std::byte** groups = groups_.As<std::byte*>();
  auto** cand = cand_.As<Hashmap::EntryHeader*>();
  pos_t* cand_k = cand_k_.As<pos_t>();
  pos_t* cand_pos = cand_pos_.As<pos_t>();
  uint8_t* match = match_.As<uint8_t>();

  for (size_t k = 0; k < n; ++k) groups[k] = nullptr;

  // findCandidates against the local table (vectorized fast path).
  size_t m = 0;
  for (size_t k = 0; k < n; ++k) {
    Hashmap::EntryHeader* e = local_ht_.FindChainTagged(hashes[k]);
    cand[m] = e;
    cand_k[m] = static_cast<pos_t>(k);
    cand_pos[m] = pos[k];
    m += (e != nullptr) ? 1 : 0;
  }
  while (m > 0) {
    bool first = true;
    for (const KeySteps& key : key_steps_) {
      key.compare(m, cand, cand_pos, match, first);
      first = false;
    }
    size_t survivors = 0;
    for (size_t j = 0; j < m; ++j) {
      if (match[j]) {
        groups[cand_k[j]] = reinterpret_cast<std::byte*>(cand[j]);
      } else {
        Hashmap::EntryHeader* next = cand[j]->next;
        cand[survivors] = next;
        cand_k[survivors] = cand_k[j];
        cand_pos[survivors] = cand_pos[j];
        survivors += (next != nullptr) ? 1 : 0;
      }
    }
    m = survivors;
  }

  // Scalar insert path for group-less tuples.
  for (size_t k = 0; k < n; ++k) {
    if (groups[k] == nullptr) groups[k] = InsertGroup(hashes[k], pos[k]);
  }
}

void HashGroup::MaybeSpillLocal() {
  // Batch boundary is the one safe point to evict: FindGroups/aggregate
  // updates hold group pointers only within a batch. Evict the whole local
  // table — partition-segmented, creation order per partition — and start
  // empty; a spilled key that reappears pre-aggregates into a fresh entry
  // and MergePartitions combines the duplicates.
  if (ctx_.spill == nullptr || local_count_ < kSpillMinGroups ||
      ctx_.ledger == nullptr || !ctx_.ledger->UnderPressure())
    return;
  runtime::SpillFile*& file = shared_->spill_files[worker_id_];
  if (file == nullptr) file = ctx_.spill->Create("tw.group", ctx_.site);
  const size_t stride = entry_size();
  std::vector<std::byte> buf;
  auto& parts = shared_->spills[worker_id_].parts;
  for (size_t p = 0; p < kPartitions; ++p) {
    std::vector<std::byte*>& part = parts[p];
    if (part.empty()) continue;
    buf.resize(part.size() * stride);
    for (size_t i = 0; i < part.size(); ++i)
      std::memcpy(buf.data() + i * stride, part[i], stride);
    file->Append(static_cast<uint32_t>(p), buf.data(), buf.size(),
                 part.size());
    part.clear();
  }
  pool_.Release();
  local_ht_.Clear();
  local_count_ = 0;
}

void HashGroup::ProcessBatch(size_t n, const pos_t* sel) {
  MaybeSpillLocal();
  uint64_t* hashes = hashes_.As<uint64_t>();
  pos_t* pos = pos_.As<pos_t>();
  std::byte** groups = groups_.As<std::byte*>();

  bool first = true;
  for (const KeyHashKind& h : hash_steps_) {
    if (first) {
      h.hash(n, sel, hashes, pos);
      first = false;
    } else {
      h.rehash(n, pos, hashes);
    }
  }
  FindGroups(n);
  // Aggregate updates (vectorized primitives over the group pointers).
  for (const AggDecl& agg : aggs_) {
    switch (agg.kind) {
      case AggKind::kCount:
        AggCount(n, groups, agg.offset);
        break;
      case AggKind::kSum:
        AggSum(n, groups, agg.offset, pos, Get<int64_t>(agg.col));
        break;
      case AggKind::kMin:
        AggMin(n, groups, agg.offset, pos, Get<int64_t>(agg.col));
        break;
      case AggKind::kMax:
        AggMax(n, groups, agg.offset, pos, Get<int64_t>(agg.col));
        break;
    }
  }
}

void HashGroup::ConsumeChild() {
  VCQ_CHECK_MSG(!key_steps_.empty(), "group keys not configured");

  size_t n;
  while ((n = child_->Next()) != kEndOfStream) {
    if (n == 0) continue;
    const pos_t* sel = child_->sel();
    // Dense batches are processed in place even while sparse rows are
    // pending — aggregation is order-insensitive, so the backlog can keep
    // accumulating.
    if (!compactor_.ShouldCompact(n)) {
      ProcessBatch(n, sel);
      continue;
    }
    compactor_.Append(n, sel);
    if (compactor_.Full()) {
      ProcessBatch(compactor_.Flush(), nullptr);
      compactor_.BeginBatch();  // restore slots before the next child batch
    }
  }
  while (compactor_.pending() > 0) {
    ProcessBatch(compactor_.Flush(), nullptr);
    compactor_.BeginBatch();
  }

  // Token-aware phase barriers: a worker that died mid-scan (exception
  // backstop) never arrives, so waiters poll the tripped token, withdraw
  // and skip the merge. An aborted worker emits nothing — the run's result
  // is discarded once the sticky trip surfaces.
  if (shared_->barrier.WaitOrAbort(ctx_.cancel) !=
      runtime::BarrierStatus::kAborted) {
    MergePartitions();
    shared_->barrier.WaitOrAbort(ctx_.cancel);
  }
  consumed_ = true;
  emit_partition_ =
      runtime::Interrupted(ctx_.cancel) ? kPartitions : worker_id_;
  emit_index_ = 0;
}

void HashGroup::MergePartitions() {
  const size_t key_offset = sizeof(Hashmap::EntryHeader);
  const size_t key_len = key_end_ - key_offset;
  const size_t stride = entry_size();
  bool any_spilled = false;
  for (runtime::SpillFile* f : shared_->spill_files)
    any_spilled |= (f != nullptr);
  std::vector<std::byte> buf;

  for (size_t p = worker_id_; p < kPartitions; p += worker_count_) {
    // Poll per partition: a deadline/budget trip mid-merge drains promptly
    // instead of merging groups nobody will read.
    if (runtime::Interrupted(ctx_.cancel)) return;
    runtime::FaultHit(ctx_.fault, "tw.group.merge", ctx_.cancel);
    std::vector<std::byte*>& out = shared_->merged[p];
    // The move fast path is only valid when nothing spilled: spilled
    // segments can duplicate live keys, which need the dedup below.
    if (worker_count_ == 1 && !any_spilled) {
      out = std::move(shared_->spills[0].parts[p]);
      continue;
    }
    size_t total = 0;
    for (size_t w = 0; w < shared_->spills.size(); ++w) {
      total += shared_->spills[w].parts[p].size();
      if (const runtime::SpillFile* f = shared_->spill_files[w])
        total += f->rows_in_partition(static_cast<uint32_t>(p));
    }
    if (total == 0) continue;
    Hashmap merge_ht;
    merge_ht.SetSize(total);
    out.reserve(total);
    // `owned` entries live in a worker pool and can be linked in place;
    // spilled rows live in the read buffer and are copied into merge_pool_
    // when they turn out to be a partition-first occurrence.
    auto merge_one = [&](std::byte* entry, bool owned) {
      auto* header = reinterpret_cast<Hashmap::EntryHeader*>(entry);
      Hashmap::EntryHeader* existing = nullptr;
      for (Hashmap::EntryHeader* e = merge_ht.FindChain(header->hash);
           e != nullptr; e = e->next) {
        if (e->hash == header->hash &&
            std::memcmp(reinterpret_cast<std::byte*>(e) + key_offset,
                        entry + key_offset, key_len) == 0) {
          existing = e;
          break;
        }
      }
      if (existing == nullptr) {
        std::byte* keep = entry;
        if (!owned) {
          keep = static_cast<std::byte*>(merge_pool_.Allocate(stride));
          std::memcpy(keep, entry, stride);
        }
        merge_ht.InsertUnlocked(reinterpret_cast<Hashmap::EntryHeader*>(keep));
        out.push_back(keep);
      } else {
        auto* dst = reinterpret_cast<std::byte*>(existing);
        for (const AggDecl& agg : aggs_) {
          auto* acc = reinterpret_cast<int64_t*>(dst + agg.offset);
          const int64_t v =
              *reinterpret_cast<const int64_t*>(entry + agg.offset);
          switch (agg.kind) {
            case AggKind::kSum:
            case AggKind::kCount:
              *acc += v;
              break;
            case AggKind::kMin:
              if (v < *acc) *acc = v;
              break;
            case AggKind::kMax:
              if (v > *acc) *acc = v;
              break;
          }
        }
      }
    };
    for (size_t w = 0; w < shared_->spills.size(); ++w) {
      // Spilled rows first: they were created before anything still live
      // in worker w's table, and first-seen order is the output order —
      // this keeps merge output byte-identical to an in-memory run.
      if (const runtime::SpillFile* f = shared_->spill_files[w]) {
        for (const auto& seg : f->segments()) {
          if (seg.partition != p) continue;
          buf.resize(seg.bytes);
          f->Read(seg, buf.data());
          for (size_t k = 0; k < seg.rows; ++k)
            merge_one(buf.data() + k * stride, /*owned=*/false);
        }
      }
      for (std::byte* entry : shared_->spills[w].parts[p])
        merge_one(entry, /*owned=*/true);
    }
  }
}

size_t HashGroup::Next() {
  if (!consumed_) ConsumeChild();
  // Pack groups from consecutive owned partitions into one full output
  // vector, so downstream operators (e.g. Q18's having-Select) see dense
  // input instead of per-partition remnants.
  std::byte** entries = emit_entries_.As<std::byte*>();
  size_t n = 0;
  while (n < ctx_.vector_size && emit_partition_ < kPartitions) {
    const std::vector<std::byte*>& part = shared_->merged[emit_partition_];
    if (emit_index_ >= part.size()) {
      emit_partition_ += worker_count_;
      emit_index_ = 0;
      continue;
    }
    const size_t take =
        std::min(ctx_.vector_size - n, part.size() - emit_index_);
    std::memcpy(entries + n, part.data() + emit_index_,
                take * sizeof(std::byte*));
    n += take;
    emit_index_ += take;
  }
  if (n == 0) return kEndOfStream;
  for (const Output& o : outputs_) o.gather(n, entries);
  sel_ = nullptr;
  return n;
}

}  // namespace vcq::tectorwise
