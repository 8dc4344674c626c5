// Streaming dynamic-graph serving (ISSUE 7 tentpole): Session::update applies
// an EdgeDelta to a registered structure as a versioned transition — the new
// handle's submits are bit-identical to a cold plan on the mutated graph, the
// superseded handle's submits come back typed kStaleStructure (never a wrong
// result), the plan cache migrates warm plans across versions instead of
// rebuilding, the LRU quota evicts with an unregister, and the incremental
// app loops (triangle count / k-truss / BFS under churn) match their batch
// counterparts on the same mutated graph.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "apps/dobfs.hpp"
#include "apps/ktruss.hpp"
#include "apps/streaming.hpp"
#include "apps/tricount.hpp"
#include "client/client.hpp"
#include "client/local_backend.hpp"
#include "client/sharded_backend.hpp"
#include "core/delta.hpp"
#include "core/masked_spgemm.hpp"
#include "gen/erdos_renyi.hpp"
#include "matrix/ops.hpp"
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

struct Fleet {
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<ShardEndpoint> endpoints;

  explicit Fleet(std::size_t n, service::ShardConfig cfg = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      shards.push_back(std::make_unique<Shard>(cfg));
      auto listener = std::make_unique<LoopbackListener>();
      auto* raw = listener.get();
      shards.back()->serve(std::move(listener));
      endpoints.push_back(ShardEndpoint{"shard-" + std::to_string(i),
                                        [raw] { return raw->connect(); }});
    }
  }
};

// A mutation batch touching a handful of rows: overwrites, inserts into
// fresh slots, and deletes — the mixed shape a maintenance loop produces.
EdgeDelta<IT, VT> small_delta(const Mat& b) {
  EdgeDelta<IT, VT> d;
  const IT n = b.nrows();
  d.insert(0, n - 1, 4.5);           // new or overwritten corner entry
  d.insert(n / 2, 0, -2.0);          // mid-matrix insert
  if (b.row_nnz(1) > 0) d.erase(1, b.row(1).cols[0]);  // present -> absent
  d.erase(2, n - 1);                 // absent delete: no-op by contract
  return d;
}

template <class M>
bool has_edge(const M& g, IT u, IT v) {
  for (const IT c : g.row(u).cols) {
    if (c == v) return true;
  }
  return false;
}

// (present, absent) undirected edge pair to mutate in the app-loop tests.
template <class M>
std::pair<std::pair<IT, IT>, std::pair<IT, IT>> pick_edges(const M& g) {
  std::pair<IT, IT> present{-1, -1}, absent{-1, -1};
  const IT n = g.nrows();
  for (IT u = 0; u < n && present.first < 0; ++u) {
    for (const IT v : g.row(u).cols) {
      if (v > u) {
        present = {u, v};
        break;
      }
    }
  }
  for (IT u = 0; u < n && absent.first < 0; ++u) {
    for (IT v = u + 1; v < n; ++v) {
      if (!has_edge(g, u, v)) {
        absent = {u, v};
        break;
      }
    }
  }
  EXPECT_GE(present.first, 0);
  EXPECT_GE(absent.first, 0);
  return {present, absent};
}

// The batch-app reference graph: ones-valued symmetric adjacency with the
// same mutations the streaming class buffered.
template <class VTIn>
CSRMatrix<IT, std::int64_t> mutated_adjacency(
    const CSRMatrix<IT, VTIn>& g, std::pair<IT, IT> ins,
    std::pair<IT, IT> del) {
  CSRMatrix<IT, std::int64_t> ones(
      g.nrows(), g.ncols(),
      std::vector<IT>(g.rowptr().begin(), g.rowptr().end()),
      std::vector<IT>(g.colidx().begin(), g.colidx().end()),
      std::vector<std::int64_t>(g.nnz(), 1));
  EdgeDelta<IT, std::int64_t> d;
  d.insert(ins.first, ins.second, 1);
  d.insert(ins.second, ins.first, 1);
  d.erase(del.first, del.second);
  d.erase(del.second, del.first);
  return apply_edge_delta(ones, d);
}

}  // namespace

// ---------------------------------------------------------------------------
// Local backend: versioned transitions, stale submits, migration, quota.
// ---------------------------------------------------------------------------

TEST(ClientStreaming, UpdateAdvancesVersionAndMatchesColdPlan) {
  auto client = make_local_client<SR, IT, VT>();
  auto session = client.open_session();

  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(90, 90, 6, 10));
  auto m = std::make_shared<const Mat>(erdos_renyi<IT, VT>(90, 90, 8, 11));
  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(90, 90, 5, 12));
  auto h1 = session.register_structure(StructureSpec<IT, VT>(b).mask(m));
  EXPECT_EQ(h1.version(), 1u);
  ASSERT_TRUE(session.submit(a, h1).get().ok());

  const auto delta = small_delta(*b);
  auto h2 = session.update(h1, delta);
  EXPECT_EQ(h2.version(), 2u);
  EXPECT_EQ(h2.id(), h1.id());

  // The new handle computes against the mutated B, bit-identical to a cold
  // direct call on the replayed matrix.
  const Mat b2 = apply_edge_delta(*b, delta);
  EXPECT_TRUE(*h2.b() == b2);
  auto res = session.submit(a, h2).get();
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_TRUE(res.matrix == masked_spgemm<SR>(*a, b2, *m));

  // Chained updates keep advancing the same id.
  auto h3 = session.update(h2, small_delta(*h2.b()));
  EXPECT_EQ(h3.version(), 3u);
  EXPECT_TRUE(session.submit(a, h3).get().ok());
}

TEST(ClientStreaming, SupersededHandleSubmitIsTypedStale) {
  auto client = make_local_client<SR, IT, VT>();
  auto session = client.open_session();
  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(60, 60, 5, 20));
  auto h1 = session.register_structure(StructureSpec<IT, VT>(b).self_mask());
  auto h2 = session.update(h1, small_delta(*b));

  auto stale = session.submit(b, h1).get();
  EXPECT_EQ(stale.status, RequestStatus::kStaleStructure);
  EXPECT_FALSE(stale.message.empty());
  EXPECT_THROW(stale.value(), std::runtime_error);

  // The typed status is the retry signal: resubmitting against the current
  // handle succeeds.
  auto res = session.submit(h2.b(), h2).get();
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_TRUE(res.matrix ==
              masked_spgemm<SR>(*h2.b(), *h2.b(), *h2.b()));
}

TEST(ClientStreaming, UpdateMigratesWarmPlanInsteadOfRebuilding) {
  BatchLimits limits;
  BatchExecutor<SR, IT, VT> exec(limits);
  auto backend = std::make_shared<Local>(exec);
  Client client(backend);
  auto session = client.open_session();

  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(120, 120, 6, 30));
  auto m = std::make_shared<const Mat>(erdos_renyi<IT, VT>(120, 120, 8, 31));
  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(120, 120, 5, 32));
  auto h1 = session.register_structure(StructureSpec<IT, VT>(b).mask(m));

  // Warm the cache at version 1, then mutate: the version-2 submit must find
  // the version-1 plan via its lineage and patch it, not plan from scratch.
  ASSERT_TRUE(session.submit(a, h1).get().ok());
  ASSERT_EQ(exec.stats().cache.delta_migrations, 0u);

  const auto delta = small_delta(*b);
  auto h2 = session.update(h1, delta);
  auto res = session.submit(a, h2).get();
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_TRUE(res.matrix == masked_spgemm<SR>(*a, apply_edge_delta(*b, delta),
                                              *m));
  EXPECT_EQ(exec.stats().cache.delta_migrations, 1u);
}

TEST(ClientStreaming, StructureQuotaEvictsLeastRecentlyUsed) {
  auto client = make_local_client<SR, IT, VT>();
  auto session = client.open_session({.max_in_flight = 8,
                                      .max_structures = 2});

  auto b1 = std::make_shared<const Mat>(erdos_renyi<IT, VT>(40, 40, 4, 41));
  auto b2 = std::make_shared<const Mat>(erdos_renyi<IT, VT>(44, 44, 4, 42));
  auto b3 = std::make_shared<const Mat>(erdos_renyi<IT, VT>(48, 48, 4, 43));
  auto h1 = session.register_structure(StructureSpec<IT, VT>(b1).self_mask());
  auto h2 = session.register_structure(StructureSpec<IT, VT>(b2).self_mask());

  // Touch h1 so h2 becomes the LRU victim when the third registration lands.
  ASSERT_TRUE(session.submit(b1, h1).get().ok());
  auto h3 = session.register_structure(StructureSpec<IT, VT>(b3).self_mask());

  EXPECT_EQ(session.submit(b2, h2).get().status, RequestStatus::kBadRequest);
  EXPECT_TRUE(session.submit(b1, h1).get().ok());
  EXPECT_TRUE(session.submit(b3, h3).get().ok());
}

// ---------------------------------------------------------------------------
// Incremental app loops vs their batch counterparts on the mutated graph.
// ---------------------------------------------------------------------------

TEST(ClientStreaming, TriangleCounterTracksBatchAppUnderChurn) {
  auto g = symmetrize_pattern(
      remove_diagonal(erdos_renyi<IT, VT>(80, 80, 7, 50)));
  const auto [present, absent] = pick_edges(g);

  auto client = make_local_client<PlusPair<std::int64_t>, IT, std::int64_t>();
  auto session = client.open_session();
  StreamingTriangleCounter<IT> counter(g, session);

  // Seed graph first: the count matches the batch app (triangle counts are
  // invariant under the batch app's degree relabeling).
  const auto seed = triangle_count(g);
  EXPECT_EQ(counter.count(), static_cast<std::int64_t>(seed.triangles));
  EXPECT_EQ(counter.version(), 1u);

  counter.insert_edge(absent.first, absent.second);
  counter.erase_edge(present.first, present.second);
  const auto g2 = mutated_adjacency(g, absent, present);
  const auto want = triangle_count(g2);
  EXPECT_EQ(counter.count(), static_cast<std::int64_t>(want.triangles));
  EXPECT_EQ(counter.version(), 2u);

  // Reverting the mutations restores the seed count at a later version.
  counter.erase_edge(absent.first, absent.second);
  counter.insert_edge(present.first, present.second);
  EXPECT_EQ(counter.count(), static_cast<std::int64_t>(seed.triangles));
  EXPECT_EQ(counter.version(), 3u);
}

TEST(ClientStreaming, KTrussTracksBatchAppUnderChurn) {
  auto g = symmetrize_pattern(
      remove_diagonal(erdos_renyi<IT, VT>(70, 70, 8, 60)));
  const auto [present, absent] = pick_edges(g);

  auto client = make_local_client<PlusPair<std::int64_t>, IT, std::int64_t>();
  auto session = client.open_session();
  StreamingKTruss<IT> truss(g, session);

  const auto g2 = mutated_adjacency(g, absent, present);
  truss.insert_edge(absent.first, absent.second);
  truss.erase_edge(present.first, present.second);

  for (const int k : {3, 4}) {
    const auto want = ktruss(g2, k);
    auto got = truss.truss(k);
    EXPECT_EQ(got.remaining_edges, want.remaining_edges) << "k=" << k;
    EXPECT_TRUE(got.truss == want.truss) << "k=" << k;
  }
  EXPECT_EQ(truss.version(), 2u);  // one flush covered both queries
}

TEST(ClientStreaming, LiveGraphBFSTracksBatchAppUnderChurn) {
  auto g = symmetrize_pattern(
      remove_diagonal(erdos_renyi<IT, VT>(90, 90, 4, 70)));
  const auto [present, absent] = pick_edges(g);

  auto client = make_local_client<PlusPair<std::int64_t>, IT, std::int64_t>();
  auto session = client.open_session();
  LiveGraphBFS<IT> bfs(g, session);

  const IT source = present.first;  // guaranteed non-isolated
  const auto seed = direction_optimized_bfs(g, source);
  EXPECT_EQ(bfs.bfs(source).levels, seed.levels);

  bfs.insert_edge(absent.first, absent.second);
  bfs.erase_edge(present.first, present.second);
  const auto g2 = mutated_adjacency(g, absent, present);
  const auto want = direction_optimized_bfs(g2, source);
  const auto got = bfs.bfs(source);
  EXPECT_EQ(got.levels, want.levels);
  EXPECT_EQ(got.depth, want.depth);
  EXPECT_EQ(bfs.version(), 2u);
}

// ---------------------------------------------------------------------------
// Sharded backend: the delta crosses the wire, stale submits stay typed.
// ---------------------------------------------------------------------------

TEST(ClientStreaming, ShardedUpdateShipsDeltaAndVersionsResults) {
  Fleet fleet(2);
  auto backend = std::make_shared<Sharded>(fleet.endpoints);
  Client client(backend);
  auto session = client.open_session({.max_in_flight = 8});

  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(100, 100, 6, 80));
  auto m = std::make_shared<const Mat>(erdos_renyi<IT, VT>(100, 100, 8, 81));
  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(100, 100, 5, 82));
  auto h1 = session.register_structure(StructureSpec<IT, VT>(b).mask(m));
  ASSERT_TRUE(session.submit(a, h1).get().ok());

  const auto delta = small_delta(*b);
  auto h2 = session.update(h1, delta);
  EXPECT_EQ(h2.version(), 2u);

  const Mat b2 = apply_edge_delta(*b, delta);
  auto res = session.submit(a, h2).get();
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_TRUE(res.matrix == masked_spgemm<SR>(*a, b2, *m));

  // The superseded handle is refused server-side with the typed status.
  auto stale = session.submit(a, h1).get();
  EXPECT_EQ(stale.status, RequestStatus::kStaleStructure);

  std::uint64_t updates = 0, stales = 0;
  for (std::size_t i = 0; i < fleet.shards.size(); ++i) {
    const auto ss = fleet.shards[i]->stats();
    updates += ss.updates;
    stales += ss.stale;
  }
  EXPECT_GE(updates, 1u);  // the delta crossed the wire, not the matrix
  EXPECT_GE(stales, 1u);
}

// Submits racing an update: every response is either a correct version-1
// result (served before the update landed) or typed kStaleStructure (the
// update, riding the high-priority queue, overtook it) — never a wrong or
// mixed-version matrix.
TEST(ClientStreaming, StaleVersionRaceNeverYieldsWrongResult) {
  Fleet fleet(1);
  auto backend = std::make_shared<Sharded>(fleet.endpoints);
  Client client(backend);
  auto session = client.open_session({.max_in_flight = 32});

  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(120, 120, 6, 90));
  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(120, 120, 5, 91));
  auto h1 = session.register_structure(StructureSpec<IT, VT>(b).self_mask());
  const Mat want_v1 = masked_spgemm<SR>(*a, *b, *b);

  const int kInFlight = 12;
  std::vector<std::future<Client::Result>> futures;
  for (int r = 0; r < kInFlight; ++r) {
    futures.push_back(session.submit(a, h1));
  }
  auto h2 = session.update(h1, small_delta(*b));  // races the queued submits
  for (int r = 0; r < kInFlight; ++r) {
    futures.push_back(session.submit(a, h1));  // definitely superseded
  }

  int ok = 0, stale = 0;
  for (auto& f : futures) {
    auto res = f.get();
    if (res.ok()) {
      ++ok;
      EXPECT_TRUE(res.matrix == want_v1);
    } else {
      ++stale;
      EXPECT_EQ(res.status, RequestStatus::kStaleStructure);
    }
  }
  EXPECT_EQ(ok + stale, 2 * kInFlight);
  EXPECT_GE(stale, kInFlight);  // the second wave is stale by construction

  // The session recovers by resubmitting against the current handle.
  const Mat b2 = *h2.b();
  auto res = session.submit(a, h2).get();
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_TRUE(res.matrix == masked_spgemm<SR>(*a, b2, b2));
}
