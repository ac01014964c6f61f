#include "runtime/builder.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "runtime/experiment.hpp"
#include "wl/apps.hpp"

namespace vulcan::runtime {
namespace {

TEST(SystemBuilder, DefaultsBuildAWorkingSystem) {
  auto built = SystemBuilder{}.build();
  ASSERT_TRUE(built.ok()) << built.error();
  TieredSystem& sys = *built.value();
  EXPECT_EQ(sys.workload_count(), 0u);
  EXPECT_GT(sys.migration_budget_pages(), 0u);
}

TEST(SystemBuilder, StagedWorkloadsRegisterInOrder) {
  auto built = SystemBuilder{}
                   .seed(11)
                   .policy("vulcan")
                   .add_workload(wl::make_memcached(1))
                   .add_workload(wl::make_liblinear(2))
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  TieredSystem& sys = *built.value();
  ASSERT_EQ(sys.workload_count(), 2u);
  EXPECT_EQ(sys.workload(0).spec().name, "memcached");
  EXPECT_EQ(sys.workload(1).spec().name, "liblinear");
}

TEST(SystemBuilder, RejectsZeroCores) {
  auto built = SystemBuilder{}.machine({.cores = 0}).build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("cores"), std::string::npos);
}

TEST(SystemBuilder, RejectsZeroSamples) {
  auto built = SystemBuilder{}.samples_per_epoch(0).build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("samples"), std::string::npos);
}

TEST(SystemBuilder, RejectsZeroEpoch) {
  EXPECT_FALSE(SystemBuilder{}.epoch(0).build().ok());
  EXPECT_FALSE(SystemBuilder{}.epoch_ms(0.0).build().ok());
}

TEST(SystemBuilder, RejectsZeroCoresPerWorkload) {
  EXPECT_FALSE(SystemBuilder{}.cores_per_workload(0).build().ok());
}

TEST(SystemBuilder, RejectsBadHeatDecay) {
  EXPECT_FALSE(SystemBuilder{}.heat_decay(0.0).build().ok());
  EXPECT_FALSE(SystemBuilder{}.heat_decay(1.5).build().ok());
  EXPECT_TRUE(SystemBuilder{}.heat_decay(1.0).build().ok());
}

TEST(SystemBuilder, RejectsTiersWhereTierZeroIsNotFastest) {
  auto built = SystemBuilder{}
                   .tiers({{"cxl", 1024, 162, 25.0}, {"dram", 1024, 70, 205.0}})
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("fastest"), std::string::npos);

  // The same rule holds on the default paper testbed: a 300 ns "fast"
  // tier is slower than the 162 ns slow tier.
  auto testbed = SystemBuilder{}.machine({.fast_latency_ns = 300}).build();
  ASSERT_FALSE(testbed.ok());
  EXPECT_NE(testbed.error().find("fastest"), std::string::npos);
}

TEST(SystemBuilder, RejectsEmptyAndZeroCapacityTiers) {
  EXPECT_FALSE(SystemBuilder{}.tiers({}).build().ok());
  EXPECT_FALSE(
      SystemBuilder{}.tiers({{"dram", 0, 70, 205.0}}).build().ok());
  // Default paper testbed with no fast memory at all.
  EXPECT_FALSE(SystemBuilder{}.machine({.fast_bytes = 0}).build().ok());
}

TEST(SystemBuilder, AcceptsValidThreeTierTopology) {
  auto built = SystemBuilder{}
                   .tiers({{"hbm", 2048, 40, 400.0},
                           {"dram", 4096, 70, 205.0},
                           {"cxl", 8192, 162, 25.0}})
                   .build();
  EXPECT_TRUE(built.ok()) << built.error();
}

TEST(SystemBuilder, UnknownPolicyNameIsAnErrorNotAThrow) {
  auto built = SystemBuilder{}.policy("colloid").build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().find("colloid"), std::string::npos);
}

TEST(SystemBuilder, AcceptsConcretePolicyInstance) {
  auto built = SystemBuilder{}.policy(make_policy("tpp")).build();
  ASSERT_TRUE(built.ok()) << built.error();
  EXPECT_EQ(built.value()->policy().name(), "tpp");
}

TEST(SystemBuilder, ValueThrowsTheBuildError) {
  try {
    auto built = SystemBuilder{}.samples_per_epoch(0).build();
    (void)built.value();
    FAIL() << "value() of a failed build must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("samples"), std::string::npos);
  }
}

// The builder is the only construction path: the constructor is private.
static_assert(!std::is_constructible_v<TieredSystem, TieredSystem::Config,
                                       std::unique_ptr<policy::SystemPolicy>>);

}  // namespace
}  // namespace vulcan::runtime
