// Structure-keyed LRU plan cache — MaskedPlan reuse across independent
// requests (runtime subsystem, ISSUE 3 tentpole).
//
// The paper's workloads re-issue masked products with recurring structure
// (k-truss rounds, BC sweeps, repeated service queries). A MaskedPlan
// already amortizes setup for a caller that *holds* it; the PlanCache makes
// that transparent: requests are fingerprinted by the structure of
// (A, B, M) plus the options, and a hit leases a ready plan — resolved
// algorithm, cached CSC of B, two-phase symbolic rowptr, flop-balanced
// partition, warm accumulators — instead of planning from scratch.
//
// Concurrency model: leases are exclusive per plan *instance*. When every
// instance of a hot key is busy, acquire() builds an extra instance for the
// same key (bounded in practice by the executor's worker count) rather than
// blocking — a plan-pool, the way connection pools scale a hot endpoint.
// Instance workspaces are additionally leased per run inside the kernel
// (core/kernel_registry.hpp), so even a caller that shares one warmed plan
// across threads never shares accumulators.
//
// Value semantics: the fingerprint covers structure only. A hit must
// therefore refresh the plan's owned numeric values (Lease::reused() tells
// the caller to go through execute_values); the mask contributes only its
// pattern, as everywhere else in the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/delta.hpp"
#include "core/options.hpp"
#include "core/plan.hpp"
#include "matrix/csr.hpp"
#include "obs/metrics.hpp"
#include "semiring/semirings.hpp"

namespace msx {

// 128-bit structure fingerprint (two independently seeded 64-bit streams;
// a collision requires both to collide, so accidental key equality is
// negligible at cache scale).
struct PlanKey {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

// Streaming byte hash used to build PlanKey halves (plan_cache.cpp).
std::uint64_t plan_hash_bytes(std::uint64_t seed, const void* data,
                              std::size_t len);

// plan_hash_bytes over the logical concatenation of `parts`, without
// materializing it: bit-identical to hashing one contiguous buffer holding
// the same bytes. This is what lets a scatter-gather frame writer (service
// wire layer) checksum header + rowptr + colidx + values spans in place
// while the receiver verifies the contiguous payload it read.
std::uint64_t plan_hash_parts(std::uint64_t seed,
                              std::span<const std::span<const std::uint8_t>> parts);

// Read view over the msx_plan_cache_* counters and the eviction state.
struct PlanCacheStats {
  std::uint64_t hits = 0;        // idle instance reused
  std::uint64_t misses = 0;      // unknown structure, plan built
  std::uint64_t grows = 0;       // known structure, all instances busy
  std::uint64_t evictions = 0;   // entries dropped by the LRU policy
  std::uint64_t instances = 0;   // plans currently owned by the cache
  std::uint64_t bytes_held = 0;  // resident bytes of those plans
  // Superseded instances carried forward across a structure update via
  // MaskedPlan::apply_delta instead of a cold rebuild (streaming path).
  std::uint64_t delta_migrations = 0;

  double hit_rate() const {
    const auto total = hits + misses + grows;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

namespace detail {

// Non-template LRU index: key -> slot id plus recency order and the shared
// stats counters. Implemented in plan_cache.cpp; the typed cache below owns
// the plan instances in a parallel structure.
class PlanCacheIndex {
 public:
  explicit PlanCacheIndex(std::size_t capacity);
  ~PlanCacheIndex();
  PlanCacheIndex(const PlanCacheIndex&) = delete;
  PlanCacheIndex& operator=(const PlanCacheIndex&) = delete;

  // Looks the key up, moving it to most-recently-used. Returns the slot id
  // or -1 when absent.
  std::int64_t find(const PlanKey& key);
  // Inserts the key (must be absent) and returns its new slot id.
  std::int64_t insert(const PlanKey& key);
  // Every slot id in least-recently-used-first order — the eviction walk of
  // the typed layer (which skips slots with busy instances and stops once
  // back under capacity).
  std::vector<std::int64_t> slots_lru() const;
  void erase_slot(std::int64_t slot);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t capacity_;
};

}  // namespace detail

// Ancestry of a structure that was just updated by an edge delta: the
// superseded B and the delta that produced the current one. A caller that
// passes this to acquire() lets the cache migrate a warm superseded plan
// forward (MaskedPlan::apply_delta) instead of building cold — the plan
// cache's half of delta rebind. Entries under the old key that are not
// migrated are simply left to age out of the LRU: the content-based key
// means they can only be hit again if the exact old structure is
// re-registered, so "invalidation" of superseded entries is by supersession,
// not by sweep.
template <class IT, class VT>
struct PlanLineage {
  std::shared_ptr<const CSRMatrix<IT, VT>> old_b;
  std::shared_ptr<const EdgeDelta<IT, VT>> delta;
  // delta_touched_rows(*delta), computed ONCE by whoever built the lineage
  // and shared by every consumer — a delta that fans out to several plan
  // instances (or panel shards) must not re-derive it per apply_delta call.
  // Optional: a null pointer just means each consumer computes its own.
  std::shared_ptr<const std::vector<IT>> touched;
};

// Builds the structure fingerprint for (a, b, m, opts). Aliasing is part of
// the key: a plan built with B aliasing A stores one matrix for both and
// refreshes values accordingly, so it must never serve a request with two
// distinct (if structurally identical) operands.
template <class IT, class VT, class MT>
PlanKey plan_fingerprint(const CSRMatrix<IT, VT>& a, const CSRMatrix<IT, VT>& b,
                         const CSRMatrix<IT, MT>& m,
                         const MaskedOptions& opts) {
  const bool b_is_a = static_cast<const void*>(&b) == static_cast<const void*>(&a);
  const bool m_is_a = static_cast<const void*>(&m) == static_cast<const void*>(&a);
  const bool m_is_b = static_cast<const void*>(&m) == static_cast<const void*>(&b);

  const std::uint64_t header[] = {
      static_cast<std::uint64_t>(a.nrows()),
      static_cast<std::uint64_t>(a.ncols()),
      static_cast<std::uint64_t>(b.nrows()),
      static_cast<std::uint64_t>(b.ncols()),
      static_cast<std::uint64_t>(m.nrows()),
      static_cast<std::uint64_t>(m.ncols()),
      (b_is_a ? 1u : 0u) | (m_is_a ? 2u : 0u) | (m_is_b ? 4u : 0u),
      static_cast<std::uint64_t>(opts.algo),
      static_cast<std::uint64_t>(opts.phases),
      static_cast<std::uint64_t>(opts.kind),
      static_cast<std::uint64_t>(opts.schedule),
      static_cast<std::uint64_t>(opts.cost_model),
      static_cast<std::uint64_t>(opts.chunk),
      static_cast<std::uint64_t>(opts.threads),
      static_cast<std::uint64_t>(opts.heap_ninspect),
      opts.inner_gallop ? 1u : 0u,
      sizeof(IT),
  };

  PlanKey key;
  auto mix = [&](const void* data, std::size_t len) {
    key.h1 = plan_hash_bytes(key.h1 ^ 0x9e3779b97f4a7c15ULL, data, len);
    key.h2 = plan_hash_bytes(key.h2 ^ 0xc2b2ae3d27d4eb4fULL, data, len);
  };
  auto mix_span = [&](auto span) {
    mix(span.data(), span.size_bytes());
  };
  mix(header, sizeof(header));
  mix_span(a.rowptr());
  mix_span(a.colidx());
  if (!b_is_a) {
    mix_span(b.rowptr());
    mix_span(b.colidx());
  }
  if (!m_is_a && !m_is_b) {
    mix_span(m.rowptr());
    mix_span(m.colidx());
  }
  return key;
}

// The cache proper: typed over the semiring/index/value triple it serves.
// Thread-safe; one mutex guards the index and instance flags, while plan
// construction and execution happen outside it.
template <class SR, class IT, class VT>
  requires Semiring<SR>
class PlanCache {
 public:
  using Plan = MaskedPlan<SR, IT, VT>;

  // `capacity` bounds distinct structure keys (entry-count LRU); a non-zero
  // `byte_budget` additionally bounds the resident bytes the cached plans
  // hold (operand copies + CSC + symbolic/partition caches) — the LRU walk
  // then evicts cold entries until back under BOTH limits, which is what
  // keeps a cache of a few wide matrices from dwarfing a cache of many small
  // ones (ROADMAP: plan-cache memory budget). The msx_plan_cache_* series
  // live in `metrics`, which must outlive the cache.
  explicit PlanCache(obs::Registry& metrics, std::size_t capacity = 64,
                     std::size_t byte_budget = 0)
      : capacity_(capacity == 0 ? 1 : capacity),
        index_(capacity_),
        byte_budget_(byte_budget),
        hits_(metrics.counter("msx_plan_cache_hits_total")),
        misses_(metrics.counter("msx_plan_cache_misses_total")),
        grows_(metrics.counter("msx_plan_cache_grows_total")),
        evictions_(metrics.counter("msx_plan_cache_evictions_total")),
        delta_migrations_(
            metrics.counter("msx_plan_cache_delta_migrations_total")) {
    metrics.gauge_fn("msx_plan_cache_instances", "", [this] {
      return static_cast<double>(stats().instances);
    });
    metrics.gauge_fn("msx_plan_cache_bytes_held", "", [this] {
      return static_cast<double>(stats().bytes_held);
    });
    metrics.gauge_fn("msx_plan_cache_hit_rate", "",
                     [this] { return stats().hit_rate(); });
  }

  // One cached plan plus its lease flag. shared_ptr-managed so an entry can
  // be evicted while an instance is still leased out — the lease keeps the
  // plan alive and simply drops it on release.
  // busy/owned/bytes are guarded by the OWNING cache's mu_ — a cross-object
  // guard MSX_GUARDED_BY cannot express (the analysis only accepts
  // capabilities reachable from the annotated member's own object), so the
  // contract lives here instead: never touch them without that mutex.
  // `plan` itself is safe to use unlocked while leased (leases are exclusive).
  struct Instance {
    std::unique_ptr<Plan> plan;
    bool busy = false;       // guarded by the owning PlanCache::mu_
    bool owned = false;      // guarded by the owning PlanCache::mu_
    std::size_t bytes = 0;   // guarded by the owning PlanCache::mu_
  };

  // Exclusive handle on one plan instance. Move-only; returns the instance
  // to the cache on destruction. The cache must outlive its leases.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      release();
      cache_ = std::exchange(other.cache_, nullptr);
      rec_ = std::move(other.rec_);
      reused_ = other.reused_;
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    Plan& plan() { return *rec_->plan; }
    // True when the lease hands back a previously built plan: the caller
    // must refresh numeric values (execute_values) since only structure is
    // part of the key.
    bool reused() const { return reused_; }

   private:
    friend class PlanCache;
    Lease(PlanCache* cache, std::shared_ptr<Instance> rec, bool reused)
        : cache_(cache), rec_(std::move(rec)), reused_(reused) {}

    void release() {
      if (cache_ != nullptr && rec_ != nullptr) {
        // The first execute() lazily builds the symbolic rowptr and the row
        // partition, so the plan is heavier now than at insert; re-measure
        // while the caller hands it back so the byte budget accounts what
        // the cache really holds (skipped once evicted — those bytes were
        // already written off).
        const std::size_t bytes = rec_->plan->resident_bytes();
        MutexLock lock(&cache_->mu_);
        if (rec_->owned) {
          cache_->bytes_held_ += bytes;
          cache_->bytes_held_ -= rec_->bytes;
          rec_->bytes = bytes;
        }
        rec_->busy = false;
      }
      cache_ = nullptr;
      rec_.reset();
    }

    PlanCache* cache_ = nullptr;
    std::shared_ptr<Instance> rec_;
    bool reused_ = false;
  };

  // Leases a plan for the request, building one on miss (or when every
  // cached instance of the key is busy). Safe to call concurrently. When
  // `lineage` is given, a miss first tries to migrate an idle instance of
  // the superseded structure forward via apply_delta — the warm path of a
  // streaming update; a failed migration silently falls back to building
  // cold.
  template <class MT>
  Lease acquire(const CSRMatrix<IT, VT>& a, const CSRMatrix<IT, VT>& b,
                const CSRMatrix<IT, MT>& m, const MaskedOptions& opts = {},
                const PlanLineage<IT, VT>* lineage = nullptr) {
    const PlanKey key = plan_fingerprint(a, b, m, opts);
    {
      MutexLock lock(&mu_);
      const std::int64_t slot = index_.find(key);
      if (slot >= 0) {
        for (auto& rec : slots_[static_cast<std::size_t>(slot)].instances) {
          if (!rec->busy) {
            rec->busy = true;
            hits_->inc();
            return Lease(this, rec, /*reused=*/true);
          }
        }
        grows_->inc();
      } else {
        misses_->inc();
      }
    }

    if (lineage != nullptr && lineage->old_b != nullptr &&
        lineage->delta != nullptr) {
      if (auto migrated = try_migrate(key, a, b, m, opts, *lineage);
          migrated.rec_ != nullptr) {
        return migrated;
      }
    }

    // Build outside the lock — planning is the expensive part the cache
    // exists to dodge, and concurrent misses on different keys must overlap.
    auto rec = std::make_shared<Instance>();
    rec->plan = std::make_unique<Plan>(a, b, m, opts);
    rec->busy = true;
    rec->bytes = rec->plan->resident_bytes();

    std::vector<std::shared_ptr<Instance>> evicted;
    {
      MutexLock lock(&mu_);
      adopt_locked(key, rec, evicted);
    }
    // Evicted plans are destroyed here, outside the lock.
    return Lease(this, std::move(rec), /*reused=*/false);
  }

  PlanCacheStats stats() const {
    PlanCacheStats out;
    out.hits = hits_->value();
    out.misses = misses_->value();
    out.grows = grows_->value();
    out.evictions = evictions_->value();
    out.delta_migrations = delta_migrations_->value();
    MutexLock lock(&mu_);
    out.instances = instances_;
    out.bytes_held = bytes_held_;
    return out;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t byte_budget() const { return byte_budget_; }

  // Drops every idle instance and empty entry (busy instances survive until
  // their lease returns; their entries stay).
  void clear() {
    std::vector<std::shared_ptr<Instance>> dropped;
    MutexLock lock(&mu_);
    for (auto cand : index_.slots_lru()) {
      try_drop_slot(cand, dropped);
    }
  }

 private:
  friend class Lease;

  struct Slot {
    std::vector<std::shared_ptr<Instance>> instances;
  };

  // Miss path with lineage: locate the superseded structure's entry (its
  // fingerprint is reconstructed alias-faithfully around the old B), pop one
  // idle instance, patch it forward with apply_delta outside the lock, and
  // re-insert it under the new key. Returns a default Lease (rec_ == null)
  // when no idle superseded instance exists or the patch fails.
  template <class MT>
  Lease try_migrate(const PlanKey& key, const CSRMatrix<IT, VT>& a,
                    const CSRMatrix<IT, VT>& b, const CSRMatrix<IT, MT>& m,
                    const MaskedOptions& opts,
                    const PlanLineage<IT, VT>& lineage) {
    const void* pa = static_cast<const void*>(&a);
    const void* pb = static_cast<const void*>(&b);
    const void* pm = static_cast<const void*>(&m);
    const bool b_is_a = pb == pa;
    const bool m_is_a = pm == pa;
    const bool m_is_b = pm == pb;

    // The old key: same request with the superseded B in place of the new
    // one, preserving the aliasing pattern (aliased operands were one object
    // then too).
    const CSRMatrix<IT, VT>& b_old = *lineage.old_b;
    const CSRMatrix<IT, VT>& a_old = b_is_a ? b_old : a;
    PlanKey old_key;
    if (m_is_a || m_is_b) {
      if constexpr (std::is_same_v<MT, VT>) {
        const CSRMatrix<IT, VT>& m_old = m_is_a ? a_old : b_old;
        old_key = plan_fingerprint(a_old, b_old, m_old, opts);
      } else {
        // An aliased mask implies MT == VT at the submit sites; a mismatch
        // cannot name the old entry, so skip migration.
        return Lease();
      }
    } else {
      old_key = plan_fingerprint(a_old, b_old, m, opts);
    }

    std::shared_ptr<Instance> rec;
    {
      MutexLock lock(&mu_);
      const std::int64_t slot = index_.find(old_key);
      if (slot >= 0) {
        auto& insts = slots_[static_cast<std::size_t>(slot)].instances;
        for (auto it = insts.begin(); it != insts.end(); ++it) {
          if (!(*it)->busy) {
            rec = std::move(*it);
            insts.erase(it);
            --instances_;
            bytes_held_ -= rec->bytes;
            rec->owned = false;
            break;
          }
        }
        if (insts.empty()) index_.erase_slot(slot);
      }
    }
    if (rec == nullptr) return Lease();

    try {
      rec->plan->apply_delta(*lineage.delta, lineage.touched.get());
    } catch (...) {
      // Destroy the instance and let the caller build cold.
      return Lease();
    }
    rec->busy = true;
    rec->bytes = rec->plan->resident_bytes();

    std::vector<std::shared_ptr<Instance>> evicted;
    {
      MutexLock lock(&mu_);
      adopt_locked(key, rec, evicted);
    }
    delta_migrations_->inc();
    // reused=true: the migrated plan's owned values predate this request —
    // the caller refreshes numerics via execute_values as on any warm hit.
    return Lease(this, std::move(rec), /*reused=*/true);
  }

  // Files a built or migrated (leased) instance under `key`, then evicts
  // back under the limits.
  void adopt_locked(const PlanKey& key, const std::shared_ptr<Instance>& rec,
                    std::vector<std::shared_ptr<Instance>>& evicted)
      MSX_REQUIRES(mu_) {
    std::int64_t slot = index_.find(key);
    if (slot < 0) {
      slot = index_.insert(key);
      if (static_cast<std::size_t>(slot) >= slots_.size()) {
        slots_.resize(static_cast<std::size_t>(slot) + 1);
      }
      slots_[static_cast<std::size_t>(slot)].instances.clear();
    }
    rec->owned = true;
    slots_[static_cast<std::size_t>(slot)].instances.push_back(rec);
    ++instances_;
    bytes_held_ += rec->bytes;
    evict_locked(evicted);
  }

  // True while either limit (entry count, byte budget) is exceeded.
  bool over_limits_locked() const MSX_REQUIRES(mu_) {
    if (index_.size() > capacity_) return true;
    return byte_budget_ > 0 && bytes_held_ > byte_budget_;
  }

  // Walks slots LRU-first while over the entry-count capacity
  // or the byte budget; an entry is evictable only when none of its
  // instances is leased out, so a busy LRU entry lets the cache exceed its
  // limits softly rather than blocking.
  void evict_locked(std::vector<std::shared_ptr<Instance>>& evicted)
      MSX_REQUIRES(mu_) {
    if (!over_limits_locked()) return;
    for (std::int64_t cand : index_.slots_lru()) {
      if (!over_limits_locked()) break;
      if (try_drop_slot(cand, evicted)) evictions_->inc();
    }
  }

  // Drops the entry unless one of its instances is leased out; true when
  // dropped.
  bool try_drop_slot(std::int64_t cand,
                     std::vector<std::shared_ptr<Instance>>& dropped)
      MSX_REQUIRES(mu_) {
    auto& slot = slots_[static_cast<std::size_t>(cand)];
    bool busy = false;
    for (const auto& rec : slot.instances) busy = busy || rec->busy;
    if (busy) return false;
    instances_ -= slot.instances.size();
    for (auto& rec : slot.instances) {
      bytes_held_ -= rec->bytes;
      rec->owned = false;
      dropped.push_back(std::move(rec));
    }
    slot.instances.clear();
    index_.erase_slot(cand);
    return true;
  }

  const std::size_t capacity_;  // mirrors index_.capacity(); lock-free reads
  mutable Mutex mu_{LockRank::kPlanCache, "PlanCache::mu_"};
  detail::PlanCacheIndex index_ MSX_GUARDED_BY(mu_);
  std::size_t byte_budget_ = 0;  // immutable after construction
  std::vector<Slot> slots_ MSX_GUARDED_BY(mu_);
  // Eviction state: plans owned and the resident bytes they hold.
  std::uint64_t instances_ MSX_GUARDED_BY(mu_) = 0;
  std::uint64_t bytes_held_ MSX_GUARDED_BY(mu_) = 0;
  obs::Counter* const hits_;
  obs::Counter* const misses_;
  obs::Counter* const grows_;
  obs::Counter* const evictions_;
  obs::Counter* const delta_migrations_;
};

}  // namespace msx
