// Distributed 2D products end to end (ISSUE 8): an oversized masked product
// submitted through MaskedClient/ShardedBackend is cut into an A-row-panel x
// B-col-panel grid, scattered over loopback shards, and the merged result is
// bit-identical to single-shard masked_spgemm — for every algorithm x phase
// combination, both mask kinds, aliased self-masks, degenerate grids and
// empty panels. Replica failover mid-scatter loses no panel task, streaming
// updates keep every panel shard version-coherent, and the EWMA / dist2d
// stats surface what happened.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "client/sharded_backend.hpp"
#include "core/masked_spgemm.hpp"
#include "gen/erdos_renyi.hpp"
#include "service/distributed.hpp"
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
using Shard = ServiceShard<SR, IT, VT>;
using Client = MaskedClient<SR, IT, VT>;
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

MaskedOptions force2d(int rows, int cols) {
  MaskedOptions o;
  o.dist = Dist2D::kForce;
  o.dist_row_panels = rows;
  o.dist_col_panels = cols;
  return o;
}

}  // namespace

// Every algorithm x phase combination goes through the forced 2x2 grid and
// comes back bit-identical to single-shard execution; complemented masks
// likewise for every algorithm that supports them. Bit-identity holds with
// arbitrary real values because each output entry accumulates the same
// contributions in the same k order as the undecomposed product.
TEST(Client2D, ForcedGridBitIdenticalEveryAlgoPhase) {
  Fleet fleet(3);
  auto backend = std::make_shared<Sharded>(fleet.endpoints);
  Client client(backend);
  auto session = client.open_session({.max_in_flight = 8});

  const IT n = 120;
  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 6, 901));
  auto m = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 8, 902));
  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 6, 903));
  auto handle = session.register_structure(
      StructureSpec<IT, VT>(b).mask(m).replicate(2));

  struct Algo {
    MaskedAlgo algo;
    const char* name;
    bool complement_ok;
  };
  const Algo algos[] = {
      {MaskedAlgo::kMSA, "msa", true},
      {MaskedAlgo::kHash, "hash", true},
      {MaskedAlgo::kMCA, "mca", false},  // no complement support
      {MaskedAlgo::kHeap, "heap", true},
      {MaskedAlgo::kHeapDot, "heapdot", true},
      {MaskedAlgo::kInner, "inner", true},
      {MaskedAlgo::kHybrid, "hybrid", true},
      {MaskedAlgo::kMSABitmap, "msabitmap", true},
      {MaskedAlgo::kAuto, "auto", true},
  };
  const PhaseMode phases[] = {PhaseMode::kOnePhase, PhaseMode::kTwoPhase};

  std::uint64_t products = 0;
  for (const auto& al : algos) {
    for (const auto ph : phases) {
      for (const auto kind : {MaskKind::kMask, MaskKind::kComplement}) {
        if (kind == MaskKind::kComplement && !al.complement_ok) continue;
        MaskedOptions mo = force2d(2, 2);
        mo.algo = al.algo;
        mo.phases = ph;
        mo.kind = kind;
        const Mat want = masked_spgemm<SR>(*a, *b, *m, mo);
        auto res = session.submit(a, handle, {.masked = mo}).get();
        ASSERT_TRUE(res.ok())
            << al.name << (ph == PhaseMode::kOnePhase ? "/1P" : "/2P")
            << (kind == MaskKind::kComplement ? "/comp: " : ": ")
            << res.message;
        EXPECT_TRUE(res.matrix == want)
            << al.name << (ph == PhaseMode::kOnePhase ? "/1P" : "/2P")
            << (kind == MaskKind::kComplement ? "/comp" : "");
        ++products;
      }
    }
  }
  backend->drain();  // bookkeeping settles after the futures
  const auto st = backend->stats();
  EXPECT_EQ(st.dist2d_products, products);   // every one took the 2D path
  EXPECT_EQ(st.dist2d_panels, 4 * products); // on the forced 2x2 grid
  EXPECT_EQ(st.completed, products);         // parents only, no panel leak
}

// The automatic decision: with the backend threshold dropped to 1 flop, a
// plain kAuto submit splits across >= 2 shards and still matches; with the
// default (64M flop) threshold, the same small product stays single-shard.
TEST(Client2D, AutoThresholdSplitsOversizedOnly) {
  const IT n = 100;
  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 5, 41));
  auto m = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 7, 42));
  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 5, 43));
  const Mat want = masked_spgemm<SR>(*a, *b, *m);

  {
    Fleet fleet(2);
    ShardedBackendConfig cfg;
    cfg.dist_flop_threshold = 1;  // everything is "oversized"
    auto backend = std::make_shared<Sharded>(fleet.endpoints, cfg);
    Client client(backend);
    auto session = client.open_session();
    auto h = session.register_structure(StructureSpec<IT, VT>(b).mask(m));
    auto res = session.submit(a, h).get();
    ASSERT_TRUE(res.ok()) << res.message;
    EXPECT_TRUE(res.matrix == want);
    const auto st = backend->stats();
    EXPECT_EQ(st.dist2d_products, 1u);
    EXPECT_GE(st.dist2d_panels, 2u);
  }
  {
    Fleet fleet(2);
    auto backend = std::make_shared<Sharded>(fleet.endpoints);
    Client client(backend);
    auto session = client.open_session();
    auto h = session.register_structure(StructureSpec<IT, VT>(b).mask(m));
    auto res = session.submit(a, h).get();
    ASSERT_TRUE(res.ok()) << res.message;
    EXPECT_TRUE(res.matrix == want);
    EXPECT_EQ(backend->stats().dist2d_products, 0u);
  }
}

// Degenerate grids (1xN, Nx1) and panels over an empty column region: B
// occupies only the first 24 of 64 columns, so a 4-column-panel plan leaves
// trailing panels with zero entries — their panel products are empty and the
// merge still reassembles exactly.
TEST(Client2D, GridShapesAndEmptyPanels) {
  Fleet fleet(3);
  auto backend = std::make_shared<Sharded>(fleet.endpoints);
  Client client(backend);
  auto session = client.open_session();

  const auto bfull = erdos_renyi<IT, VT>(96, 64, 5, 7);
  auto b = std::make_shared<const Mat>(service::slice_cols(bfull, 0, 24));
  auto m = std::make_shared<const Mat>(erdos_renyi<IT, VT>(96, 64, 6, 8));
  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(96, 96, 5, 9));
  const Mat want = masked_spgemm<SR>(*a, *b, *m);
  auto h = session.register_structure(
      StructureSpec<IT, VT>(b).mask(m).replicate(2));

  struct Grid {
    int rows, cols;
  };
  for (const auto g : {Grid{1, 3}, Grid{3, 1}, Grid{2, 4}}) {
    auto res = session.submit(a, h, {.masked = force2d(g.rows, g.cols)}).get();
    ASSERT_TRUE(res.ok()) << g.rows << "x" << g.cols << ": " << res.message;
    EXPECT_TRUE(res.matrix == want) << g.rows << "x" << g.cols;
  }
  EXPECT_EQ(backend->stats().dist2d_products, 3u);
}

// Self-masked (k-truss style) structures split too: the panel mask aliases
// the panel itself, so one registration per panel serves both roles.
TEST(Client2D, SelfMaskAliasedStructureSplits) {
  Fleet fleet(2);
  auto backend = std::make_shared<Sharded>(fleet.endpoints);
  Client client(backend);
  auto session = client.open_session();

  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(110, 110, 6, 55));
  auto h = session.register_structure(
      StructureSpec<IT, VT>(b).self_mask().replicate(2));
  auto res = session.submit(b, h, {.masked = force2d(2, 2)}).get();
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_TRUE(res.matrix == masked_spgemm<SR>(*b, *b, *b));
  EXPECT_EQ(backend->stats().dist2d_products, 1u);
}

// Streaming updates fan out to every panel shard: after Session::update the
// new-version 2D product matches single-shard on the patched B (including a
// column panel the delta never touches — its empty delta still advanced the
// version), and submits against the superseded handle resolve to a typed
// kStaleStructure, never a stale answer.
TEST(Client2D, StreamingUpdateKeepsPanelsCoherent) {
  Fleet fleet(3);
  auto backend = std::make_shared<Sharded>(fleet.endpoints);
  Client client(backend);
  auto session = client.open_session();

  const IT n = 96;
  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 5, 61));
  auto m = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 7, 62));
  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 5, 63));
  auto h = session.register_structure(
      StructureSpec<IT, VT>(b).mask(m).replicate(2));

  // Warm the 2D plan at version 1.
  auto res0 = session.submit(a, h, {.masked = force2d(2, 3)}).get();
  ASSERT_TRUE(res0.ok()) << res0.message;
  EXPECT_TRUE(res0.matrix == masked_spgemm<SR>(*a, *b, *m));

  // Edits confined to low columns: with 3 column panels at least the last
  // panel sees an empty delta slice and must still move to version 2.
  EdgeDelta<IT, VT> delta;
  delta.insert(3, 1, 2.5);
  delta.insert(40, 2, -1.0);
  delta.insert(77, 0, 4.0);
  delta.erase(5, (*b).row(5).empty() ? 1 : (*b).row(5).cols[0]);
  auto h2 = session.update(h, delta);

  auto stale = session.submit(a, h, {.masked = force2d(2, 3)}).get();
  EXPECT_EQ(stale.status, RequestStatus::kStaleStructure);

  const Mat want = masked_spgemm<SR>(*a, *h2.b(), *m);
  auto res1 = session.submit(a, h2, {.masked = force2d(2, 3)}).get();
  ASSERT_TRUE(res1.ok()) << res1.message;
  EXPECT_TRUE(res1.matrix == want);

  // Self-masked structures: the panel mask follows the panel through updates.
  auto sb = std::make_shared<const Mat>(erdos_renyi<IT, VT>(80, 80, 5, 71));
  auto sh = session.register_structure(
      StructureSpec<IT, VT>(sb).self_mask().replicate(2));
  EdgeDelta<IT, VT> sd;
  sd.insert(10, 11, 1.0);
  sd.insert(20, 60, 1.0);
  auto sh2 = session.update(sh, sd);
  auto sres = session.submit(sh2.b(), sh2, {.masked = force2d(2, 2)}).get();
  ASSERT_TRUE(sres.ok()) << sres.message;
  EXPECT_TRUE(sres.matrix ==
              masked_spgemm<SR>(*sh2.b(), *sh2.b(), *sh2.b()));
}

// A replica dies mid-scatter: panel tasks in flight on the dead shard are
// re-dispatched to the surviving replica — every product future resolves
// with the exact result, none lost, none duplicated.
TEST(Client2D, ReplicaFailoverMidScatterLosesNothing) {
  // Flaky "shard": swallows a few submit frames per connection, then slams
  // the connection without answering.
  auto flaky = std::make_shared<LoopbackListener>();
  const int kSwallow = 3;
  std::thread flaky_server([flaky] {
    while (auto stream = flaky->accept()) {
      service::FrameHeader header;
      std::vector<std::uint8_t> payload;
      int submits = 0;
      try {
        while (submits < kSwallow && recv_frame(*stream, header, payload)) {
          if (header.type == service::MessageType::kSubmitRequest) ++submits;
        }
      } catch (const service::TransportError&) {
      } catch (const service::WireError&) {
      }
      stream->shutdown();
    }
  });

  Fleet real(1);
  std::vector<ShardEndpoint> endpoints{
      {"flaky", [flaky] { return flaky->connect(); }}, real.endpoints[0]};
  {
    auto backend = std::make_shared<Sharded>(endpoints);
    Client client(backend);
    auto session = client.open_session({.max_in_flight = 8});

    const IT n = 90;
    auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 5, 81));
    auto m = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 7, 82));
    auto h = session.register_structure(
        StructureSpec<IT, VT>(b).mask(m).replicate(2));

    const int kProducts = 6;
    std::vector<std::future<Client::Result>> futures;
    std::vector<Mat> want;
    for (int r = 0; r < kProducts; ++r) {
      auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(n, n, 5,
                                                               90 + r));
      want.push_back(masked_spgemm<SR>(*a, *b, *m));
      futures.push_back(session.submit(a, h, {.masked = force2d(2, 2)}));
    }
    for (int r = 0; r < kProducts; ++r) {
      auto res = futures[static_cast<std::size_t>(r)].get();
      ASSERT_TRUE(res.ok()) << res.message;  // zero panel tasks lost
      EXPECT_TRUE(res.matrix == want[static_cast<std::size_t>(r)]);
    }
    backend->drain();  // bookkeeping settles after the futures
    const auto st = backend->stats();
    EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kProducts));  // no dup
    EXPECT_EQ(st.dist2d_products, static_cast<std::uint64_t>(kProducts));
  }
  flaky->close();
  flaky_server.join();
}

// The cost-model feedback loop is visible: after 2D traffic, shards that
// served panels carry a non-zero EWMA and the dist2d counters add up.
TEST(Client2D, StatsExposeEwmaAndPanelCounters) {
  Fleet fleet(2);
  auto backend = std::make_shared<Sharded>(fleet.endpoints);
  Client client(backend);
  auto session = client.open_session();

  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(100, 100, 5, 31));
  auto h = session.register_structure(
      StructureSpec<IT, VT>(b).self_mask().replicate(2));
  for (int r = 0; r < 3; ++r) {
    auto res = session.submit(b, h, {.masked = force2d(2, 2)}).get();
    ASSERT_TRUE(res.ok()) << res.message;
  }
  const auto st = backend->stats();
  ASSERT_EQ(st.ewma_nanos.size(), 2u);
  EXPECT_GT(st.ewma_nanos[0] + st.ewma_nanos[1], 0.0);
  EXPECT_EQ(st.dist2d_products, 3u);
  EXPECT_EQ(st.dist2d_panels, 12u);
}
