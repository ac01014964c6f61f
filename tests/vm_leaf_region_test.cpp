// Leaf-table region summaries and iteration — the substrate under the
// Telescope-style hierarchical scanner.
#include <gtest/gtest.h>

#include "vm/page_table.hpp"
#include "vm/replicated_page_table.hpp"

namespace vulcan::vm {
namespace {

TEST(LeafRegion, StartsIdle) {
  LeafTable leaf;
  EXPECT_FALSE(leaf.region_accessed());
}

TEST(LeafRegion, AccessedPteMarksRegion) {
  LeafTable leaf;
  leaf.set(3, Pte::make(1, true, 0));  // not accessed yet
  EXPECT_FALSE(leaf.region_accessed());
  leaf.set(3, Pte::make(1, true, 0).with(Pte::kAccessed));
  EXPECT_TRUE(leaf.region_accessed());
}

TEST(LeafRegion, ClearThenReaccess) {
  LeafTable leaf;
  leaf.set(0, Pte::make(1, true, 0).with(Pte::kAccessed));
  leaf.clear_region_accessed();
  EXPECT_FALSE(leaf.region_accessed());
  // Writing a non-accessed PTE keeps it idle...
  leaf.set(1, Pte::make(2, true, 0));
  EXPECT_FALSE(leaf.region_accessed());
  // ...but any accessed write re-marks it.
  leaf.set(2, Pte::make(3, true, 0).with(Pte::kAccessed));
  EXPECT_TRUE(leaf.region_accessed());
}

TEST(LeafRegion, RecordAccessThroughReplicatedTableMarksRegion) {
  ReplicatedPageTable rpt;
  const auto th = rpt.add_thread();
  rpt.map(100, Pte::make(7, true, th));
  rpt.process_table().leaf_of(100)->clear_region_accessed();
  rpt.record_access(100, th, false);
  EXPECT_TRUE(rpt.process_table().leaf_of(100)->region_accessed());
}

TEST(ForEachLeaf, VisitsEveryLeafOnceWithCorrectBase) {
  PageTable pt;
  // Three leaves: chunk 0, chunk 5, and a far-away chunk.
  pt.set(0, Pte::make(1, true, 0));
  pt.set(5 * 512 + 9, Pte::make(2, true, 0));
  const Vpn far = (Vpn{3} << 27) | (Vpn{4} << 18) | (Vpn{5} << 9) | 6;
  pt.set(far, Pte::make(3, true, 0));

  std::vector<Vpn> bases;
  pt.visit_leaves([&](Vpn base, LeafTable& leaf) {
    bases.push_back(base);
    EXPECT_GT(leaf.live(), 0u);
  });
  ASSERT_EQ(bases.size(), 3u);
  EXPECT_EQ(bases[0], 0u);
  EXPECT_EQ(bases[1], 5u * 512u);
  EXPECT_EQ(bases[2], far & ~Vpn{0x1FF});
}

TEST(ForEachLeaf, SharedLeafVisibleFromBothTrees) {
  PageTable a, b;
  a.set(1000, Pte::make(1, true, 0).with(Pte::kAccessed));
  b.attach_leaf(1000, a.leaf_ref(1000));
  // The region summary is a property of the shared leaf itself.
  bool seen = false;
  b.visit_leaves([&](Vpn, LeafTable& leaf) {
    seen = true;
    EXPECT_TRUE(leaf.region_accessed());
    leaf.clear_region_accessed();
  });
  EXPECT_TRUE(seen);
  a.visit_leaves([&](Vpn, LeafTable& leaf) {
    EXPECT_FALSE(leaf.region_accessed()) << "clear visible through tree A";
  });
}

}  // namespace
}  // namespace vulcan::vm
