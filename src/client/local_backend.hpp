// LocalBackend — the client API served in-process by the concurrent runtime
// (ISSUE 5 tentpole).
//
// Registered structures are held as shared operands, and every submit goes
// through BatchExecutor::submit_shared: nothing is copied per request, the
// structure-keyed PlanCache serves repeats warm, and Priority maps straight
// onto the executor's two-level queues. The executor's completion maps each
// JobResult straight to a Result on the worker, so drain() is exactly
// wait_idle().
//
// Error taxonomy mapping: BatchRejected -> kOverloaded, std::invalid_argument
// (shape/option validation, thrown inside the job) -> kBadRequest, a version
// mismatch against the live registration -> kStaleStructure, anything else
// -> kInternalError. kShardDown cannot happen locally.
#pragma once

#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "client/client.hpp"
#include "common/thread_annotations.hpp"
#include "runtime/batch.hpp"

namespace msx::client {

template <class SR, class IT, class VT>
  requires Semiring<SR>
class LocalBackend final : public Backend<SR, IT, VT> {
 public:
  using Base = Backend<SR, IT, VT>;
  using Mat = typename Base::Mat;
  using Result = typename Base::Result;
  using Completion = typename Base::Completion;
  using Executor = BatchExecutor<SR, IT, VT>;

  // Owns its executor.
  explicit LocalBackend(const BatchLimits& limits = {})
      : owned_(std::make_unique<Executor>(limits)), exec_(owned_.get()) {}

  // Borrows an executor shared with other parts of the process (it must
  // outlive the backend).
  explicit LocalBackend(Executor& exec) : exec_(&exec) {}

  ~LocalBackend() override { drain(); }

  std::uint64_t register_structure(std::shared_ptr<const Mat> b,
                                   std::shared_ptr<const Mat> m,
                                   int replicas = 1) override {
    (void)replicas;  // placement hint; everything is local here
    check_arg(b != nullptr, "LocalBackend: null B");
    MutexLock lock(&mu_);
    const std::uint64_t id = next_id_++;
    structures_[id] = Structure{std::move(b), std::move(m)};
    return id;
  }

  void release_structure(std::uint64_t structure_id) override {
    MutexLock lock(&mu_);
    structures_.erase(structure_id);
  }

  std::uint64_t update_structure(std::uint64_t structure_id,
                                 std::shared_ptr<const EdgeDelta<IT, VT>> delta,
                                 std::shared_ptr<const Mat> new_b,
                                 std::shared_ptr<const Mat> new_m) override {
    check_arg(new_b != nullptr, "LocalBackend: null updated B");
    MutexLock lock(&mu_);
    const auto it = structures_.find(structure_id);
    check_arg(it != structures_.end(),
              "LocalBackend: update for unknown structure id");
    Structure& s = it->second;
    auto lineage = std::make_shared<PlanLineage<IT, VT>>();
    lineage->old_b = s.b;
    // Computed once per delta and shared with every plan instance the cache
    // migrates forward (delta_touched_rows sorts; don't repeat it per plan).
    lineage->touched = std::make_shared<const std::vector<IT>>(
        delta_touched_rows(*delta));
    lineage->delta = std::move(delta);
    s.b = std::move(new_b);
    s.m = std::move(new_m);
    s.lineage = std::move(lineage);
    return ++s.version;
  }

  void submit(std::uint64_t structure_id, std::uint64_t version,
              std::shared_ptr<const Mat> a,
              std::shared_ptr<const Mat> mask_override,
              const MaskedOptions& opts, Priority priority,
              Completion done) override {
    Structure s;
    {
      MutexLock lock(&mu_);
      const auto it = structures_.find(structure_id);
      if (it == structures_.end()) {
        s.b = nullptr;
      } else {
        s = it->second;
      }
    }
    if (s.b == nullptr) {
      deliver(done, RequestStatus::kBadRequest,
              "unknown structure id " + std::to_string(structure_id));
      return;
    }
    if (version != s.version) {
      deliver(done, RequestStatus::kStaleStructure,
              "structure " + std::to_string(structure_id) +
                  " submitted at version " + std::to_string(version) +
                  " but is at version " + std::to_string(s.version));
      return;
    }
    auto m = mask_override != nullptr ? std::move(mask_override) : s.m;
    if (m == nullptr) {
      deliver(done, RequestStatus::kBadRequest,
              "structure registered without a mask");
      return;
    }

    JobOptions job;
    job.priority = priority;
    // Session::submit is on the stack: adopt its trace so the executor's
    // exec.queue / exec.run (and phase.*) spans nest under the client root.
    job.trace = obs::current_trace();
    job.trace.component = "local";
    try {
      exec_->submit_shared(std::move(a), s.b, std::move(m), opts,
                           std::move(job), s.lineage,
                           [done](typename Executor::JobResult j) {
                             if (j.error) {
                               fail(done, j.error);
                               return;
                             }
                             Result r;
                             r.matrix = std::move(j.matrix);
                             done(std::move(r));
                           });
    } catch (...) {
      // Not enqueued (BatchRejected, null operand): the completion never
      // runs, so answer here.
      fail(done, std::current_exception());
    }
  }

  void drain() override { exec_->wait_idle(); }

  std::string name() const override { return "local"; }

  // Client-side series plus the in-process executor's registry.
  std::string metrics() override {
    return obs::Registry::global().render() + exec_->metrics().render();
  }

  Executor& executor() { return *exec_; }

 private:
  struct Structure {
    std::shared_ptr<const Mat> b;
    std::shared_ptr<const Mat> m;
    std::uint64_t version = 1;
    // Most recent update's {old B, delta}: lets the plan cache migrate a warm
    // plan for the previous version instead of building cold.
    std::shared_ptr<const PlanLineage<IT, VT>> lineage;
  };

  static void deliver(const Completion& done, RequestStatus status,
                      std::string message) {
    Result r;
    r.status = status;
    r.message = std::move(message);
    done(std::move(r));
  }

  // The one error mapping, for admission and job failures alike.
  static void fail(const Completion& done, std::exception_ptr error) {
    try {
      std::rethrow_exception(error);
    } catch (const BatchRejected& e) {
      deliver(done, RequestStatus::kOverloaded, e.what());
    } catch (const std::invalid_argument& e) {
      deliver(done, RequestStatus::kBadRequest, e.what());
    } catch (const std::exception& e) {
      deliver(done, RequestStatus::kInternalError, e.what());
    }
  }

  std::unique_ptr<Executor> owned_;
  Executor* exec_;
  Mutex mu_{LockRank::kClientBackend, "LocalBackend::mu_"};
  std::unordered_map<std::uint64_t, Structure> structures_ MSX_GUARDED_BY(mu_);
  std::uint64_t next_id_ MSX_GUARDED_BY(mu_) = 1;
};

// Convenience: a client over a fresh local runtime.
template <class SR, class IT, class VT>
MaskedClient<SR, IT, VT> make_local_client(const BatchLimits& limits = {}) {
  return MaskedClient<SR, IT, VT>(
      std::make_shared<LocalBackend<SR, IT, VT>>(limits));
}

}  // namespace msx::client
