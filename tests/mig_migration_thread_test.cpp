// The migration thread stores its backlog as packed 24-byte records. These
// tests pin that the packing is lossless: every request field survives the
// round trip, the queue pops in exactly the order a plain
// std::deque<MigrationRequest> would, and provenance ids keep all 64 bits.
#include "mig/migration_thread.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <random>

#include "obs/provenance.hpp"
#include "vm/mmu.hpp"

namespace vulcan::mig {
namespace {

constexpr vm::ThreadId kSharedSentinel = 0x7F;

class MigrationThreadTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kPages = 1024;

  MigrationThreadTest()
      : topo_(make_topo()),
        as_(make_as_config(), topo_),
        mmu_({.cores = 4}),
        shootdowns_(cost_, &mmu_),
        migrator_(as_, topo_, shootdowns_, cost_, {}),
        thread_(migrator_) {}

  static mem::Topology make_topo() {
    std::vector<mem::TierConfig> tiers{
        {"hbm", 256, 50, 400.0},
        {"dram", 1024, 70, 205.0},
        {"cxl", 4096, 162, 25.0},
    };
    return mem::Topology(std::move(tiers));
  }
  static vm::AddressSpace::Config make_as_config() {
    vm::AddressSpace::Config cfg;
    cfg.pid = 1;
    cfg.rss_pages = kPages;
    cfg.thp = false;
    return cfg;
  }

  mem::Topology topo_;
  vm::AddressSpace as_;
  sim::CostModel cost_;
  vm::Mmu mmu_;
  vm::ShootdownController shootdowns_;
  Migrator migrator_;
  MigrationThread thread_;
};

TEST_F(MigrationThreadTest, EveryFieldRoundTrips) {
  const std::vector<MigrationRequest> in{
      {.vpn = as_.vpn_at(0),
       .to = 2,  // the slowest tier of the three
       .mode = CopyMode::kSync,
       .shared = true,
       .owner = kSharedSentinel,
       .write_intensive = true,
       .whole_chunk = true,
       .heat = static_cast<double>(1234.5678f),
       .predicted_benefit = -0.1,
       .provenance = 0},
      {.vpn = as_.vpn_at(kPages - 1),
       .to = 1,
       .mode = CopyMode::kAsync,
       .shared = false,
       .owner = 126,
       .write_intensive = false,
       .whole_chunk = false,
       .heat = static_cast<double>(0.1f),
       .predicted_benefit = -1e-300,
       .provenance = 42},
      {.vpn = as_.vpn_at(kPages / 2),
       .to = mem::kFastTier,
       .heat = std::numeric_limits<double>::infinity(),
       .predicted_benefit = std::numeric_limits<double>::lowest()},
  };
  for (const MigrationRequest& r : in) thread_.enqueue(r);
  ASSERT_EQ(thread_.backlog(), in.size());
  const auto out = thread_.pop_batch(in.size() + 5);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_TRUE(out[i] == in[i]) << "request " << i;
  }
  EXPECT_EQ(thread_.backlog(), 0u);
}

// Several thousand random enqueue / enqueue_urgent / partial drains, with
// about half the requests carrying a provenance id: the sparse id column
// must stay in lockstep with the flagged records through front and back
// pushes alike.
TEST_F(MigrationThreadTest, InterleavedEnqueuesPopLikeAReferenceDeque) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<float> heat(0.0f, 1e6f);
  std::uniform_real_distribution<double> benefit(-1e6, 1e6);
  std::deque<MigrationRequest> reference;
  const auto random_request = [&] {
    MigrationRequest r;
    r.vpn = as_.vpn_at(rng() % kPages);
    r.to = static_cast<mem::TierId>(rng() % 3);
    r.mode = rng() % 2 ? CopyMode::kAsync : CopyMode::kSync;
    r.shared = rng() % 2;
    r.owner = static_cast<vm::ThreadId>(rng() % (kSharedSentinel + 1));
    r.write_intensive = rng() % 2;
    r.whole_chunk = rng() % 2;
    r.heat = heat(rng);
    r.predicted_benefit = benefit(rng);
    r.provenance = rng() % 2 ? rng() : 0;
    return r;
  };
  for (int op = 0; op < 6000; ++op) {
    const auto kind = rng() % 8;
    if (kind < 4) {
      const MigrationRequest r = random_request();
      thread_.enqueue(r);
      reference.push_back(r);
    } else if (kind < 7) {
      const MigrationRequest r = random_request();
      thread_.enqueue_urgent(r);
      reference.push_front(r);
    } else {
      const std::size_t n = rng() % 16;
      for (const MigrationRequest& got : thread_.pop_batch(n)) {
        ASSERT_FALSE(reference.empty());
        ASSERT_TRUE(got == reference.front()) << "op " << op;
        reference.pop_front();
      }
    }
    ASSERT_EQ(thread_.backlog(), reference.size()) << "op " << op;
  }
  const auto rest = thread_.pop_batch(reference.size());
  ASSERT_EQ(rest.size(), reference.size());
  for (std::size_t i = 0; i < rest.size(); ++i) {
    ASSERT_TRUE(rest[i] == reference[i]) << "tail " << i;
  }
}

TEST_F(MigrationThreadTest, ClearBacklogEmptiesTheQueue) {
  for (std::uint64_t p = 0; p < 100; ++p) {
    thread_.enqueue({.vpn = as_.vpn_at(p), .provenance = p + 1});
  }
  thread_.clear_backlog();
  EXPECT_EQ(thread_.backlog(), 0u);
  EXPECT_TRUE(thread_.pop_batch(10).empty());
  // Nothing of the old provenance column may leak into new records.
  thread_.enqueue({.vpn = as_.vpn_at(7), .provenance = 999});
  const auto out = thread_.pop_batch(1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].provenance, 999u);
}

TEST_F(MigrationThreadTest, ProvenanceIdsAboveTwoToThe32Survive) {
  obs::ProvenanceLedger ledger({.enabled = true});
  migrator_.set_provenance(&ledger, 0);
  const std::vector<std::uint64_t> ids{
      (std::uint64_t{1} << 32) + 1, std::uint64_t{1} << 40, 0,
      std::numeric_limits<std::uint64_t>::max(), 0};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    MigrationRequest r{.vpn = as_.vpn_at(i), .provenance = ids[i]};
    // Alternate ends so the id column is pushed from both sides.
    if (i % 2) {
      thread_.enqueue_urgent(r);
    } else {
      thread_.enqueue(r);
    }
  }
  // Queue order: urgent pushes (3, 1) then the normal ones (0, 2, 4).
  const std::vector<std::size_t> order{3, 1, 0, 2, 4};
  const auto out = thread_.pop_batch(ids.size());
  ASSERT_EQ(out.size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(out[i].vpn, as_.vpn_at(order[i]));
    EXPECT_EQ(out[i].provenance, ids[order[i]]);
  }
}

using MigrationThreadDeathTest = MigrationThreadTest;

// Heat is stored as a float: a double that is not a widened float would be
// silently rounded, so Debug builds refuse it at enqueue.
TEST_F(MigrationThreadDeathTest, HeatThatIsNotAWidenedFloatTripsDebugAssert) {
  const MigrationRequest r{.vpn = as_.vpn_at(0), .heat = 0.1};
  ASSERT_NE(static_cast<double>(static_cast<float>(r.heat)), r.heat);
  EXPECT_DEBUG_DEATH(thread_.enqueue(r), "widened HeatTracker float");
}

}  // namespace
}  // namespace vulcan::mig
