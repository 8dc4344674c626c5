// Pieces shared by the three service workloads: an in-process loopback
// fleet, the client stack over it, balanced structure placement and the
// service-layer counters.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "client/client.hpp"
#include "client/sharded_backend.hpp"
#include "ledger.hpp"
#include "semiring/semirings.hpp"
#include "service/shard.hpp"
#include "service/transport.hpp"

namespace ledger {

using SR = msx::PlusTimes<VT>;
using Backend = msx::client::ShardedBackend<SR, IT, VT>;
using Session = msx::client::Session<SR, IT, VT>;
using Handle = msx::client::StructureHandle<IT, VT>;
using Spec = msx::client::StructureSpec<IT, VT>;
using Result = msx::client::ClientResult<IT, VT>;

// `n` in-process shards, each serving a loopback listener with
// `pool_threads` executor workers.
struct Fleet {
  using Shard = msx::service::ServiceShard<SR, IT, VT>;
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<msx::service::ShardEndpoint> endpoints;

  Fleet(int n, int pool_threads) {
    for (int i = 0; i < n; ++i) {
      msx::service::ShardConfig cfg;
      cfg.name = "shard-" + std::to_string(i);
      cfg.limits.pool_threads = pool_threads;
      shards.push_back(std::make_unique<Shard>(cfg));
      auto listener = std::make_unique<msx::service::LoopbackListener>();
      auto* raw = listener.get();
      shards.back()->serve(std::move(listener));
      endpoints.push_back(msx::service::ShardEndpoint{
          cfg.name, [raw] { return raw->connect(); }});
    }
  }
};

// A fleet, one ShardedBackend over it and one session per client, each with
// one request in flight. Members are destroyed sessions first, fleet last.
struct Stack {
  Fleet fleet;
  std::shared_ptr<Backend> backend;
  std::vector<Session> sessions;

  Stack(int shards, int pool_threads, int clients)
      : fleet(shards, pool_threads),
        backend(std::make_shared<Backend>(fleet.endpoints)) {
    msx::client::MaskedClient<SR, IT, VT> client(backend);
    for (int c = 0; c < clients; ++c) {
      sessions.push_back(client.open_session({.max_in_flight = 1}));
    }
  }
};

// Which shard of an n-shard fleet serves products of `a` against {b, m}.
// ShardedBackend routes by digests of the operand patterns and the options,
// the same on every backend instance, so one probe product answers for all
// later clients; the workloads use it to split their structures evenly, so
// a run measures serving rather than where the hash ring put each input.
class Placement {
 public:
  explicit Placement(int shards) : stack_(shards, 1, 1) {}

  int shard_of(const MatPtr& a, const MatPtr& b, const MatPtr& m,
               const msx::MaskedOptions& opts = {}) {
    Session& s = stack_.sessions[0];
    Handle h = s.register_structure(Spec(b).mask(m));
    const auto before = stack_.backend->stats().routed;
    (void)s.submit(a, h, {.masked = opts}).get();
    const auto after = stack_.backend->stats().routed;
    s.release(h);
    for (std::size_t i = 0; i < after.size(); ++i) {
      if (after[i] != before[i]) return static_cast<int>(i);
    }
    return -1;
  }

 private:
  Stack stack_;
};

// service.* and runtime.* metrics from the fleet's own counters, read in
// process after the run. `updates` is how many Session::update calls the
// run made.
inline void set_service_metrics(Outcome& out, Stack& st, double updates) {
  double bytes = 0, requests = 0, hits = 0, lookups = 0, migrations = 0;
  for (auto& s : st.fleet.shards) {
    const auto ss = s->stats();
    bytes += static_cast<double>(ss.bytes_in + ss.bytes_out);
    requests += static_cast<double>(ss.requests);
    hits += static_cast<double>(ss.cache_hits);
    lookups += static_cast<double>(ss.cache_hits + ss.cache_misses +
                                   ss.cache_grows);
    migrations += static_cast<double>(
        s->executor().stats().cache.delta_migrations);
  }
  const auto bs = st.backend->stats();
  double total = 0, most = 0;
  for (auto r : bs.routed) {
    total += static_cast<double>(r);
    most = std::max(most, static_cast<double>(r));
  }
  const double retries =
      static_cast<double>(bs.failover_resubmits + bs.overload_reroutes);
  out.set("service.bytes_per_req", requests > 0 ? bytes / requests : 0);
  out.set("service.retries_per_1k",
          requests > 0 ? 1000.0 * retries / requests : 0);
  out.set("service.route_imbalance",
          total > 0 ? most / (total / static_cast<double>(bs.routed.size()))
                    : 0);
  out.set("runtime.plan_cache_hit_rate", lookups > 0 ? hits / lookups : 0);
  out.set("runtime.delta_migrations_per_update",
          updates > 0 ? migrations / updates : 0);
  out.set("distributed.panels_per_product",
          bs.dist2d_products > 0 ? static_cast<double>(bs.dist2d_panels) /
                                       static_cast<double>(bs.dist2d_products)
                                 : 0);
}

}  // namespace ledger
