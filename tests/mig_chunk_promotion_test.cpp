// Whole-chunk (2 MB) migration and THP collapse — the page-size
// alternative to Vulcan's split-on-promotion.
#include <gtest/gtest.h>

#include "core/manager.hpp"
#include "mig/migrator.hpp"
#include "runtime/builder.hpp"
#include "vm/mmu.hpp"
#include "wl/apps.hpp"

namespace vulcan::mig {
namespace {

mem::Topology two_tier_topo() {
  std::vector<mem::TierConfig> tiers{{"fast", 2048, 70, 205.0},
                                     {"slow", 8192, 162, 25.0}};
  return mem::Topology(std::move(tiers));
}

class ChunkMigrationTest : public ::testing::Test {
 protected:
  ChunkMigrationTest()
      : topo_(make_topo()), as_(make_cfg(), topo_), mmu_({.cores = 8}),
        shootdowns_(cost_, &mmu_), rng_(3) {
    thread_ = as_.add_thread();
    // Two full chunks, faulted as base pages into the slow tier.
    for (std::uint64_t p = 0; p < 1024; ++p) {
      as_.fault(as_.vpn_at(p), thread_, false, mem::kSlowTier);
    }
  }

  static mem::Topology make_topo() { return two_tier_topo(); }
  static vm::AddressSpace::Config make_cfg() {
    vm::AddressSpace::Config cfg;
    cfg.pid = 1;
    cfg.rss_pages = 1024;
    cfg.thp = false;  // start base-paged; collapse is the feature under test
    return cfg;
  }

  Migrator make_migrator() {
    Migrator::Config cfg;
    cfg.process_cores = {1, 2};
    return Migrator(as_, topo_, shootdowns_, cost_, cfg);
  }

  MigrationRequest chunk_req(std::uint64_t chunk) {
    MigrationRequest req;
    req.vpn = as_.vpn_at(chunk * 512);
    req.to = mem::kFastTier;
    req.mode = CopyMode::kAsync;
    req.whole_chunk = true;
    req.owner = thread_;
    req.shared = false;
    return req;
  }

  sim::CostModel cost_;
  mem::Topology topo_;
  vm::AddressSpace as_;
  vm::Mmu mmu_;
  vm::ShootdownController shootdowns_;
  sim::Rng rng_;
  vm::ThreadId thread_ = 0;
};

TEST_F(ChunkMigrationTest, MovesWholeChunkAndCollapses) {
  auto m = make_migrator();
  const auto req = chunk_req(0);
  const auto stats = m.execute({&req, 1}, rng_);
  EXPECT_EQ(stats.migrated, 512u);
  EXPECT_EQ(as_.pages_in_tier(mem::kFastTier), 512u);
  EXPECT_TRUE(as_.is_huge(as_.vpn_at(0)))
      << "fully co-resident chunk collapses to a huge mapping";
  EXPECT_FALSE(as_.is_huge(as_.vpn_at(512))) << "other chunk untouched";
}

TEST_F(ChunkMigrationTest, BatchedCostsCheaperThanPerPage) {
  auto chunky = make_migrator();
  const auto creq = chunk_req(0);
  const auto chunk_stats = chunky.execute({&creq, 1}, rng_);

  auto paged = make_migrator();
  std::vector<MigrationRequest> reqs;
  for (std::uint64_t p = 512; p < 1024; ++p) {
    reqs.push_back({.vpn = as_.vpn_at(p), .to = mem::kFastTier,
                    .mode = CopyMode::kAsync, .shared = false,
                    .owner = thread_});
  }
  const auto page_stats = paged.execute(reqs, rng_);
  EXPECT_EQ(page_stats.migrated, chunk_stats.migrated);
  EXPECT_LT(chunk_stats.daemon_cycles, page_stats.daemon_cycles / 3)
      << "one batched flush + amortised copies beat 512 cold migrations";
}

TEST_F(ChunkMigrationTest, PartialMoveSplitsInsteadOfLying) {
  // Leave only 100 free fast frames: the chunk cannot fully move.
  std::vector<mem::Pfn> hold;
  while (topo_.allocator(mem::kFastTier).free_pages() > 100) {
    hold.push_back(*topo_.allocator(mem::kFastTier).allocate());
  }
  auto m = make_migrator();
  const auto req = chunk_req(0);
  const auto stats = m.execute({&req, 1}, rng_);
  EXPECT_EQ(stats.migrated, 100u);
  EXPECT_FALSE(as_.is_huge(as_.vpn_at(0)))
      << "a tier-straddling chunk must not carry a huge mapping";
  for (const auto pfn : hold) topo_.allocator(mem::kFastTier).free(pfn);
}

TEST_F(ChunkMigrationTest, AlreadyResidentChunkIsNoop) {
  auto m = make_migrator();
  const auto req = chunk_req(0);
  m.execute({&req, 1}, rng_);
  const auto again = m.execute({&req, 1}, rng_);
  EXPECT_EQ(again.migrated, 0u);
}

TEST(AddressSpaceCollapse, RejectsBadCandidates) {
  auto topo = two_tier_topo();
  vm::AddressSpace::Config cfg;
  cfg.pid = 2;
  cfg.rss_pages = 700;  // chunk 1 is a 188-page tail
  cfg.thp = false;
  vm::AddressSpace as(cfg, topo);
  const auto th = as.add_thread();
  // Partially mapped chunk 0: collapse must fail.
  as.fault(as.vpn_at(0), th, false, mem::kFastTier);
  EXPECT_FALSE(as.collapse_chunk(as.vpn_at(0)));
  for (std::uint64_t p = 1; p < 512; ++p) {
    as.fault(as.vpn_at(p), th, false, mem::kFastTier);
  }
  EXPECT_TRUE(as.collapse_chunk(as.vpn_at(0)));
  EXPECT_TRUE(as.is_huge(as.vpn_at(511)));
  EXPECT_FALSE(as.collapse_chunk(as.vpn_at(0))) << "already huge";
  // Tail chunk can never collapse.
  for (std::uint64_t p = 512; p < 700; ++p) {
    as.fault(as.vpn_at(p), th, false, mem::kFastTier);
  }
  EXPECT_FALSE(as.collapse_chunk(as.vpn_at(600)));
}

TEST(ChunkPromotionPolicy, DenselyHotChunksGoWhole) {
  core::VulcanManager::Params params;
  params.enable_chunk_promotion = true;
  params.chunk_promotion_density = 0.70;
  auto built = runtime::SystemBuilder{}
                   .samples_per_epoch(8000)
                   .thp(false)
                   // PT-scan sees every touched page per epoch, so chunk
                   // density is known before per-page promotions drain the
                   // candidates.
                   .profiler(runtime::ProfilerKind::kPtScan)
                   .policy(std::make_unique<core::VulcanManager>(params))
                   .build();
  runtime::TieredSystem& sys = *built.value();
  // Hot set = exactly chunks 0..3 (2048 pages of 8192): dense chunks.
  wl::MicrobenchWorkload::Params wp;
  wp.rss_pages = 8192;
  wp.wss_pages = 2048;
  wp.zipf_theta = 0.2;  // near-uniform inside the WSS: high chunk density
  sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(wp));
  sys.prefault(0, 0, 1);  // all slow
  sys.run_epochs(12);
  unsigned huge_chunks = 0;
  for (std::uint64_t c = 0; c < 4; ++c) {
    huge_chunks += sys.address_space(0).is_huge(
        sys.address_space(0).vpn_at(c * 512));
  }
  EXPECT_GE(huge_chunks, 3u)
      << "dense hot chunks should be promoted whole and collapsed";
  EXPECT_GT(sys.metrics().mean_fthr(0, 8), 0.9);
}

}  // namespace
}  // namespace vulcan::mig
