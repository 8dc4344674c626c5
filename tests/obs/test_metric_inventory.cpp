// Metric inventory guard: the series MaskedClient::metrics() renders for a
// local stack and for a 2-shard loopback fleet, and the contract that every
// field of each stats() view equals its rendered sample once the stack has
// drained. A fixed workload (several submits, one Session::update, one
// forced-2D product) touches every layer: client, backend routing, shard
// wire accounting, executor lanes and the plan cache's delta migration.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "client/client.hpp"
#include "client/local_backend.hpp"
#include "client/sharded_backend.hpp"
#include "core/delta.hpp"
#include "gen/erdos_renyi.hpp"
#include "service/shard.hpp"

using namespace msx;
using namespace msx::client;
using msx::service::LoopbackListener;
using msx::service::ServiceShard;
using msx::service::ShardEndpoint;

using IT = int32_t;
using VT = double;
using SR = PlusTimes<VT>;
using Mat = CSRMatrix<IT, VT>;
using Client = MaskedClient<SR, IT, VT>;
using Local = LocalBackend<SR, IT, VT>;
using Shard = ServiceShard<SR, IT, VT>;
using Sharded = ShardedBackend<SR, IT, VT>;

namespace {

// "name{labels} value" sample lines keyed by everything before the value.
// A key rendered twice would make the inventory ambiguous, so it fails here.
std::map<std::string, double> parse_samples(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    EXPECT_NE(sp, std::string::npos) << line;
    if (sp == std::string::npos) continue;
    const bool fresh =
        out.emplace(line.substr(0, sp), std::stod(line.substr(sp + 1))).second;
    EXPECT_TRUE(fresh) << "sample rendered twice: " << line;
  }
  return out;
}

std::string key(const std::string& name, const std::string& labels) {
  return labels.empty() ? name : name + "{" + labels + "}";
}

// The sample's value; a missing series fails the test and reads as NaN.
double sample(const std::map<std::string, double>& samples,
              const std::string& name, const std::string& labels = "") {
  const auto it = samples.find(key(name, labels));
  EXPECT_NE(it, samples.end()) << "missing series " << key(name, labels);
  return it == samples.end() ? std::nan("") : it->second;
}

void expect_counter(const std::map<std::string, double>& samples,
                    const std::string& name, const std::string& labels,
                    std::uint64_t want) {
  EXPECT_EQ(sample(samples, name, labels), static_cast<double>(want))
      << key(name, labels);
}

void expect_gauge(const std::map<std::string, double>& samples,
                  const std::string& name, const std::string& labels,
                  double want) {
  // Gauges render with 9 significant digits.
  EXPECT_NEAR(sample(samples, name, labels), want,
              1e-8 * std::max(1.0, std::fabs(want)))
      << key(name, labels);
}

// A summary renders its three quantiles plus _sum and _count.
void expect_summary(const std::map<std::string, double>& samples,
                    const std::string& name, const std::string& labels) {
  const std::string sep = labels.empty() ? "" : ",";
  for (const char* q : {"0.5", "0.95", "0.99"}) {
    sample(samples, name, labels + sep + "quantile=\"" + q + "\"");
  }
  sample(samples, name + "_sum", labels);
  sample(samples, name + "_count", labels);
}

// Every executor and plan-cache series equals the executor's BatchStats.
void expect_executor_view(const std::map<std::string, double>& samples,
                          const std::string& labels, const BatchStats& s) {
  expect_counter(samples, "msx_executor_jobs_submitted_total", labels,
                 s.submitted);
  expect_counter(samples, "msx_executor_jobs_completed_total", labels,
                 s.completed);
  expect_counter(samples, "msx_executor_jobs_small_total", labels,
                 s.small_jobs);
  expect_counter(samples, "msx_executor_jobs_wide_total", labels, s.wide_jobs);
  expect_counter(samples, "msx_executor_jobs_interactive_total", labels,
                 s.interactive_jobs);
  expect_counter(samples, "msx_executor_rejected_total", labels, s.rejected);
  expect_counter(samples, "msx_executor_admission_blocks_total", labels,
                 s.admission_blocks);
  expect_gauge(samples, "msx_executor_pending_jobs", labels,
               static_cast<double>(s.pending_jobs));
  expect_gauge(samples, "msx_executor_pending_bytes", labels,
               static_cast<double>(s.pending_bytes));
  expect_counter(samples, "msx_plan_cache_hits_total", labels, s.cache.hits);
  expect_counter(samples, "msx_plan_cache_misses_total", labels,
                 s.cache.misses);
  expect_counter(samples, "msx_plan_cache_grows_total", labels, s.cache.grows);
  expect_counter(samples, "msx_plan_cache_evictions_total", labels,
                 s.cache.evictions);
  expect_counter(samples, "msx_plan_cache_delta_migrations_total", labels,
                 s.cache.delta_migrations);
  expect_gauge(samples, "msx_plan_cache_instances", labels,
               static_cast<double>(s.cache.instances));
  expect_gauge(samples, "msx_plan_cache_bytes_held", labels,
               static_cast<double>(s.cache.bytes_held));
  expect_gauge(samples, "msx_plan_cache_hit_rate", labels,
               s.cache.hit_rate());
  for (const char* h : {"msx_executor_queue_seconds",
                        "msx_executor_run_seconds", "msx_job_seconds"}) {
    expect_summary(samples, h, labels);
  }
}

// The fixed workload: four submits against a masked structure, one update,
// two submits at the new version, then one product forced onto a 1x2 panel
// grid (a local backend runs it as an ordinary product). Every future must
// resolve kOk.
void drive(Session<SR, IT, VT>& session) {
  const IT n = 80;
  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 5, 7101));
  auto m = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 7, 7102));
  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 5, 7103));
  auto h = session.register_structure(StructureSpec<IT, VT>(b).mask(m));

  std::vector<std::future<ClientResult<IT, VT>>> futs;
  for (int i = 0; i < 4; ++i) {
    SubmitOptions o;
    if (i == 3) o.priority = Priority::kInteractive;
    futs.push_back(session.submit(a, h, o));
  }
  for (auto& f : futs) ASSERT_TRUE(f.get().ok());

  EdgeDelta<IT, VT> d;
  d.insert(0, n - 1, 2.5);
  d.insert(n / 2, 1, -1.0);
  auto h2 = session.update(h, d);
  futs.clear();
  for (int i = 0; i < 2; ++i) futs.push_back(session.submit(a, h2));
  for (auto& f : futs) ASSERT_TRUE(f.get().ok());

  SubmitOptions grid;
  grid.masked.dist = Dist2D::kForce;
  grid.masked.dist_row_panels = 1;
  grid.masked.dist_col_panels = 2;
  auto r = session.submit(a, h2, grid).get();
  ASSERT_TRUE(r.ok()) << r.message;
}

}  // namespace

TEST(MetricInventory, LocalStackRendersEveryViewField) {
  auto backend = std::make_shared<Local>();
  Client client(backend);
  auto session = client.open_session();
  drive(session);
  client.drain();

  const BatchStats es = backend->executor().stats();
  EXPECT_EQ(es.submitted, 7u);
  EXPECT_EQ(es.completed, es.submitted);
  EXPECT_GE(es.cache.delta_migrations, 1u);

  const auto samples = parse_samples(client.metrics());
  expect_executor_view(samples, "", es);
  expect_summary(samples, "msx_client_request_seconds", "");
}

TEST(MetricInventory, ShardedStackRendersEveryViewField) {
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<ShardEndpoint> endpoints;
  for (int i = 0; i < 2; ++i) {
    service::ShardConfig cfg;
    cfg.name = "shard-" + std::to_string(i);
    shards.push_back(std::make_unique<Shard>(cfg));
    auto listener = std::make_unique<LoopbackListener>();
    auto* raw = listener.get();
    shards.back()->serve(std::move(listener));
    endpoints.push_back(
        ShardEndpoint{cfg.name, [raw] { return raw->connect(); }});
  }
  auto backend = std::make_shared<Sharded>(endpoints);
  Client client(backend);
  auto session = client.open_session();
  drive(session);
  client.drain();
  // A shard answers from the job's future, which is ready just before its
  // executor's bookkeeping settles.
  for (auto& s : shards) s->executor().wait_idle();

  const ShardedBackendStats bs = backend->stats();
  EXPECT_EQ(bs.submitted, 7u);
  EXPECT_EQ(bs.completed, bs.submitted);
  EXPECT_EQ(bs.dist2d_products, 1u);
  EXPECT_EQ(bs.dist2d_panels, 2u);
  std::vector<service::ServiceStats> ss;
  std::vector<BatchStats> es;
  for (auto& s : shards) {
    ss.push_back(s->stats());
    es.push_back(s->executor().stats());
  }

  // The scrape itself reaches each shard over a fresh connection; its frame
  // is empty and its reply is counted only after the page is rendered, so
  // the snapshots above are what the pages show.
  const auto samples = parse_samples(client.metrics());

  expect_counter(samples, "msx_backend_submitted_total", "", bs.submitted);
  expect_counter(samples, "msx_backend_completed_total", "", bs.completed);
  expect_counter(samples, "msx_backend_failover_resubmits_total", "",
                 bs.failover_resubmits);
  expect_counter(samples, "msx_backend_overload_reroutes_total", "",
                 bs.overload_reroutes);
  expect_counter(samples, "msx_backend_down_marks_total", "", bs.down_marks);
  expect_counter(samples, "msx_backend_probes_total", "", bs.probes);
  expect_counter(samples, "msx_backend_rejoins_total", "", bs.rejoins);
  expect_counter(samples, "msx_backend_dist2d_products_total", "",
                 bs.dist2d_products);
  expect_counter(samples, "msx_backend_dist2d_panels_total", "",
                 bs.dist2d_panels);
  expect_gauge(samples, "msx_backend_inflight", "", 0.0);
  expect_summary(samples, "msx_client_request_seconds", "");

  std::uint64_t routed = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string label = "shard=\"" + endpoints[i].name + "\"";
    expect_counter(samples, "msx_backend_routed_total", label, bs.routed[i]);
    routed += bs.routed[i];
    expect_gauge(samples, "msx_backend_ewma_nanos", label, bs.ewma_nanos[i]);
    expect_gauge(samples, "msx_backend_shard_up", label, 1.0);

    const service::ServiceStats& s = ss[i];
    expect_counter(samples, "msx_shard_requests_total", label, s.requests);
    expect_counter(samples, "msx_shard_responses_total", label, s.responses);
    expect_counter(samples, "msx_shard_errors_total", label, s.errors);
    expect_counter(samples, "msx_shard_overloaded_total", label, s.overloaded);
    expect_counter(samples, "msx_shard_stale_total", label, s.stale);
    expect_counter(samples, "msx_shard_registrations_total", label,
                   s.registrations);
    expect_counter(samples, "msx_shard_updates_total", label, s.updates);
    expect_counter(samples, "msx_shard_bytes_in_total", label, s.bytes_in);
    expect_counter(samples, "msx_shard_bytes_out_total", label, s.bytes_out);
    expect_gauge(samples, "msx_shard_warm_hit_rate", label, s.warm_hit_rate());
    expect_summary(samples, "msx_shard_request_seconds", label);
    // The shard view folds in its executor's counters.
    expect_counter(samples, "msx_executor_jobs_submitted_total", label,
                   s.jobs_submitted);
    expect_counter(samples, "msx_executor_jobs_completed_total", label,
                   s.jobs_completed);
    expect_counter(samples, "msx_plan_cache_hits_total", label, s.cache_hits);
    expect_counter(samples, "msx_plan_cache_misses_total", label,
                   s.cache_misses);
    expect_counter(samples, "msx_plan_cache_grows_total", label,
                   s.cache_grows);
    expect_counter(samples, "msx_plan_cache_evictions_total", label,
                   s.cache_evictions);
    expect_gauge(samples, "msx_plan_cache_instances", label,
                 static_cast<double>(s.cache_instances));
    expect_gauge(samples, "msx_plan_cache_bytes_held", label,
                 static_cast<double>(s.cache_bytes));
    expect_executor_view(samples, label, es[i]);
  }
  // Six ordinary products plus two panel tasks completed kOk on some shard.
  EXPECT_EQ(routed, 8u);
}
