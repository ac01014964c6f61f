// vm::Mmu facade: translation pipeline, page-walk cache coherence, batch
// equivalence, and the seeded-fault self-test proving the kPwcCoherence
// auditor rule actually fires on a stale cached walk.
#include "vm/mmu.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "runtime/experiment.hpp"
#include "runtime/system.hpp"
#include "sim/config.hpp"
#include "wl/apps.hpp"

namespace vulcan::vm {
namespace {

mem::Topology small_topology() {
  std::vector<mem::TierConfig> tiers{
      {"fast", 2048, 70, 205.0},
      {"slow", 8192, 162, 25.0},
  };
  return mem::Topology(std::move(tiers));
}

AddressSpace::Config small_config(std::uint64_t rss_pages, bool thp = false) {
  AddressSpace::Config cfg;
  cfg.pid = 1;
  cfg.rss_pages = rss_pages;
  cfg.thp = thp;
  return cfg;
}

Mmu::Config mmu_config(unsigned cores = 1, bool pwc = true) {
  Mmu::Config cfg;
  cfg.cores = cores;
  cfg.pwc_enabled = pwc;
  cfg.pwc_slots = 64;
  return cfg;
}

const Mmu::PlacementFn kPlaceFast = [](Vpn) { return mem::kFastTier; };

TEST(Mmu, TranslateFaultsOnceThenHitsTlb) {
  auto topo = small_topology();
  AddressSpace as(small_config(100), topo);
  const ThreadId t = as.add_thread();
  Mmu mmu(mmu_config());

  const Mmu::Access access{.vpn = as.vpn_at(5), .core = 0, .thread = t};
  const Mmu::Translation first = mmu.translate(as, access, kPlaceFast);
  EXPECT_FALSE(first.tlb_hit);
  EXPECT_TRUE(first.faulted) << "unmapped page must demand-fault";
  EXPECT_TRUE(first.pte.present());
  EXPECT_EQ(mem::tier_of(first.pte.pfn()), mem::kFastTier);

  const Mmu::Translation second = mmu.translate(as, access, kPlaceFast);
  EXPECT_TRUE(second.tlb_hit);
  EXPECT_FALSE(second.faulted) << "refault on a mapped page";
  EXPECT_EQ(second.pte.pfn(), first.pte.pfn());
  EXPECT_EQ(as.faulted_pages(), 1u);
}

TEST(Mmu, PlacementCallbackChoosesTier) {
  auto topo = small_topology();
  AddressSpace as(small_config(100), topo);
  const ThreadId t = as.add_thread();
  Mmu mmu(mmu_config());

  const Mmu::Translation r = mmu.translate(
      as, {.vpn = as.vpn_at(0), .core = 0, .thread = t},
      [](Vpn) { return mem::kSlowTier; });
  EXPECT_EQ(mem::tier_of(r.pte.pfn()), mem::kSlowTier);
}

TEST(Mmu, WalkMatchesProcessTableAndInstallsPwc) {
  auto topo = small_topology();
  AddressSpace as(small_config(100), topo);
  const ThreadId t = as.add_thread();
  Mmu mmu(mmu_config());

  EXPECT_FALSE(mmu.walk(as, as.vpn_at(3)).present()) << "unmapped vpn";
  as.fault(as.vpn_at(3), t, false, mem::kFastTier);

  const Pte walked = mmu.walk(as, as.vpn_at(3));
  EXPECT_EQ(walked, as.tables().get(as.vpn_at(3)));
  const std::uint64_t installs = mmu.pwc_stats().installs;
  EXPECT_GE(installs, 1u);
  const std::uint64_t hits = mmu.pwc_stats().hits;
  (void)mmu.walk(as, as.vpn_at(4));  // same 2 MB chunk: cached walk
  EXPECT_EQ(mmu.pwc_stats().hits, hits + 1);
  EXPECT_EQ(mmu.pwc_stats().installs, installs);
}

TEST(Mmu, PwcDisabledStillTranslatesIdentically) {
  auto topo_a = small_topology();
  auto topo_b = small_topology();
  AddressSpace as_a(small_config(1536), topo_a);
  AddressSpace as_b(small_config(1536), topo_b);
  const ThreadId ta = as_a.add_thread();
  const ThreadId tb = as_b.add_thread();
  ASSERT_EQ(ta, tb);
  Mmu with_pwc(mmu_config(1, /*pwc=*/true));
  Mmu without_pwc(mmu_config(1, /*pwc=*/false));

  for (const std::uint64_t page : {0ull, 5ull, 513ull, 5ull, 1024ull}) {
    const Mmu::Access acc{.vpn = as_a.vpn_at(page), .core = 0, .thread = ta};
    const Mmu::Translation a = with_pwc.translate(as_a, acc, kPlaceFast);
    const Mmu::Translation b = without_pwc.translate(as_b, acc, kPlaceFast);
    EXPECT_EQ(a.pte, b.pte) << "page " << page;
    EXPECT_EQ(a.tlb_hit, b.tlb_hit) << "page " << page;
    EXPECT_EQ(a.faulted, b.faulted) << "page " << page;
  }
  EXPECT_EQ(without_pwc.pwc_stats().hits, 0u);
  EXPECT_EQ(without_pwc.pwc_stats().installs, 0u);
}

TEST(Mmu, InvalidateDropsTlbAndPwcEntries) {
  auto topo = small_topology();
  AddressSpace as(small_config(100), topo);
  const ThreadId t = as.add_thread();
  Mmu mmu(mmu_config(/*cores=*/2));

  const Vpn vpn = as.vpn_at(7);
  (void)mmu.translate(as, {.vpn = vpn, .core = 0, .thread = t}, kPlaceFast);
  (void)mmu.translate(as, {.vpn = vpn, .core = 1, .thread = t}, kPlaceFast);
  ASSERT_TRUE(mmu.tlb(0).lookup(as.pid(), vpn));
  ASSERT_TRUE(mmu.tlb(1).lookup(as.pid(), vpn));

  mmu.invalidate(as.pid(), vpn);  // broadcast shootdown shape
  EXPECT_FALSE(mmu.tlb(0).lookup(as.pid(), vpn));
  EXPECT_FALSE(mmu.tlb(1).lookup(as.pid(), vpn));
  EXPECT_GE(mmu.pwc_stats().invalidations, 1u);

  // Targeted form: only the initiator and the listed cores flush.
  (void)mmu.translate(as, {.vpn = vpn, .core = 0, .thread = t}, kPlaceFast);
  (void)mmu.translate(as, {.vpn = vpn, .core = 1, .thread = t}, kPlaceFast);
  mmu.invalidate(/*initiator=*/0, /*targets=*/{}, as.pid(), vpn);
  EXPECT_FALSE(mmu.tlb(0).lookup(as.pid(), vpn));
  EXPECT_TRUE(mmu.tlb(1).lookup(as.pid(), vpn))
      << "non-target core must keep its entry";
}

TEST(Mmu, WalkStaysCoherentAcrossSplitAndCollapse) {
  auto topo = small_topology();
  AddressSpace as(small_config(2 * sim::kPagesPerHuge, /*thp=*/true), topo);
  const ThreadId t = as.add_thread();
  Mmu mmu(mmu_config());

  // Fault the first chunk whole (THP) and cache its walk.
  for (std::uint64_t p = 0; p < sim::kPagesPerHuge; ++p) {
    as.fault(as.vpn_at(p), t, false, mem::kFastTier);
  }
  ASSERT_TRUE(as.is_huge(as.vpn_at(0)));
  ASSERT_TRUE(mmu.walk(as, as.vpn_at(1)).present());

  // Split, then collapse. After each transition (plus the conservative
  // PWC invalidation the migrator issues at the same point), every
  // cached-path walk must match the process tree exactly.
  ASSERT_TRUE(as.split_chunk(as.vpn_at(0)));
  mmu.invalidate_pwc(as.pid(), as.vpn_at(0));
  for (const std::uint64_t p : {0ull, 1ull, 511ull}) {
    EXPECT_EQ(mmu.walk(as, as.vpn_at(p)), as.tables().get(as.vpn_at(p)))
        << "after split, page " << p;
  }

  ASSERT_TRUE(as.collapse_chunk(as.vpn_at(0)));
  mmu.invalidate_pwc(as.pid(), as.vpn_at(0));
  EXPECT_TRUE(as.is_huge(as.vpn_at(0)));
  for (const std::uint64_t p : {0ull, 1ull, 511ull}) {
    EXPECT_EQ(mmu.walk(as, as.vpn_at(p)), as.tables().get(as.vpn_at(p)))
        << "after collapse, page " << p;
  }
}

TEST(Mmu, WalkStaysCoherentAcrossMigrationFlip) {
  auto topo = small_topology();
  AddressSpace as(small_config(100), topo);
  const ThreadId t = as.add_thread();
  Mmu mmu(mmu_config());

  const Vpn vpn = as.vpn_at(9);
  as.fault(vpn, t, false, mem::kFastTier);
  ASSERT_EQ(mem::tier_of(mmu.walk(as, vpn).pfn()), mem::kFastTier);

  // Migration flip: remap the page onto a slow-tier frame in place. The
  // PTE write goes through the shared leaf, so even the *cached* walk
  // must observe the new translation immediately.
  const mem::Pfn new_pfn = topo.allocator(mem::kSlowTier).allocate().value();
  const mem::Pfn old_pfn = as.remap(vpn, new_pfn);
  topo.allocator(mem::kFastTier).free(old_pfn);

  const Pte walked = mmu.walk(as, vpn);
  EXPECT_EQ(walked.pfn(), new_pfn);
  EXPECT_EQ(mem::tier_of(walked.pfn()), mem::kSlowTier);
  EXPECT_EQ(walked, as.tables().get(vpn));
}

TEST(Mmu, BatchSizeOneEqualsBatchSizeN) {
  auto topo_a = small_topology();
  auto topo_b = small_topology();
  AddressSpace as_a(small_config(600), topo_a);
  AddressSpace as_b(small_config(600), topo_b);
  const ThreadId ta = as_a.add_thread();
  (void)as_b.add_thread();
  Mmu one(mmu_config());
  Mmu batched(mmu_config());

  // A stream with refaults, a write, and a chunk crossing.
  std::vector<Mmu::Access> stream;
  for (const std::uint64_t page : {0ull, 1ull, 0ull, 513ull, 44ull, 1ull}) {
    stream.push_back({.vpn = as_a.vpn_at(page),
                      .core = 0,
                      .thread = ta,
                      .is_write = page == 44});
  }

  std::vector<Mmu::Translation> singles, whole, scratch;
  for (const Mmu::Access& acc : stream) {
    one.translate_batch(as_a, {&acc, 1}, kPlaceFast, scratch);
    singles.push_back(scratch.front());
  }
  batched.translate_batch(as_b, stream, kPlaceFast, whole);

  ASSERT_EQ(singles.size(), whole.size());
  for (std::size_t i = 0; i < singles.size(); ++i) {
    EXPECT_EQ(singles[i].pte, whole[i].pte) << "access " << i;
    EXPECT_EQ(singles[i].tlb_hit, whole[i].tlb_hit) << "access " << i;
    EXPECT_EQ(singles[i].faulted, whole[i].faulted) << "access " << i;
  }
  for (const Mmu::Access& acc : stream) {
    EXPECT_EQ(as_a.tables().get(acc.vpn), as_b.tables().get(acc.vpn));
  }
}

TEST(Mmu, BatchHookRunsPerAccessInStreamOrder) {
  auto topo = small_topology();
  AddressSpace as(small_config(100), topo);
  const ThreadId t = as.add_thread();
  Mmu mmu(mmu_config());

  std::vector<Mmu::Access> stream;
  for (const std::uint64_t page : {3ull, 4ull, 3ull}) {
    stream.push_back({.vpn = as.vpn_at(page), .core = 0, .thread = t});
  }
  std::vector<Vpn> seen;
  std::vector<Mmu::Translation> out;
  mmu.translate_batch(as, stream, kPlaceFast, out,
                      [&](const Mmu::Access& a, const Mmu::Translation& r) {
                        EXPECT_TRUE(r.pte.present());
                        seen.push_back(a.vpn);
                      });
  ASSERT_EQ(seen.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(seen[i], stream[i].vpn);
  }
}

// Seeded-fault self-test: poison the PWC with a leaf pointer that does
// not match the process tree and prove the kPwcCoherence rule trips. A
// safety net that cannot catch a planted fault catches nothing.
TEST(Mmu, PoisonedPwcEntryTripsAuditor) {
  auto built = runtime::SystemBuilder{}
                   .samples_per_epoch(2000)
                   .seed(7)
                   // Report, don't throw: we inspect the report.
                   .audit_throw(false)
                   .policy(runtime::make_policy("tpp"))
                   .build();
  runtime::TieredSystem& sys = *built.value();

  wl::MicrobenchWorkload::Params p;
  p.rss_pages = 4096;
  p.wss_pages = 2048;
  p.seed = 11;
  sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(p));
  sys.prefault(0);
  sys.run_epochs(2);
  ASSERT_TRUE(sys.run_audit().ok()) << "clean system must audit clean";

  // Cross-wire chunk 0's cached walk to chunk 1's leaf table.
  const AddressSpace& as = sys.address_space(0);
  const LeafTable* wrong =
      as.tables().process_table().leaf_of(as.vpn_at(sim::kPagesPerHuge));
  ASSERT_NE(wrong, nullptr);
  ASSERT_NE(wrong, as.tables().process_table().leaf_of(as.vpn_at(0)));
  sys.mmu().debug_poison_pwc(as.pid(), as.vpn_at(0),
                             const_cast<LeafTable*>(wrong));

  const check::AuditReport& report = sys.run_audit();
  ASSERT_FALSE(report.ok()) << "auditor missed the seeded stale PWC entry";
  bool saw_pwc_rule = false;
  for (const check::Violation& v : report.violations) {
    if (v.rule == check::AuditRule::kPwcCoherence) saw_pwc_rule = true;
  }
  EXPECT_TRUE(saw_pwc_rule);
}

}  // namespace
}  // namespace vulcan::vm
