#include "policy/cascade.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace vulcan::policy {

mem::TierId CascadePolicy::placement_tier(const WorkloadView& /*view*/,
                                          const mem::Topology& topo) const {
  // First tier with headroom, fastest first.
  for (std::size_t t = 0; t < topo.tier_count(); ++t) {
    const auto tier = static_cast<mem::TierId>(t);
    if (!topo.allocator(tier).below_watermark(0.02)) return tier;
  }
  return static_cast<mem::TierId>(topo.tier_count() - 1);
}

void CascadePolicy::plan_epoch(std::span<WorkloadView> workloads,
                               mem::Topology& topo, sim::Rng& rng) {
  (void)rng;
  const std::size_t tiers = topo.tier_count();
  if (tiers == 0 || workloads.empty()) return;

  // Global heat ranking across every managed page. Entries are packed
  // into two u64 words — first = (inverted heat bits, workload), second =
  // (page, resident tier) — so ascending lexicographic sort reproduces
  // the (heat desc, workload asc, page asc) ranking on plain integers,
  // and the issuing loop below reads each page's tier without a second
  // page-table walk. Heat is a non-negative float, so inverted IEEE bits
  // order exactly like descending value.
  // Entries pack into one 128-bit integer (rank word high, payload word
  // low) so the sort compares with a single branch instead of a
  // two-field lexicographic comparator.
  using Entry = unsigned __int128;
  const auto heat_of = [](Entry e) {
    return std::bit_cast<float>(~static_cast<std::uint32_t>(e >> 96));
  };
  const auto resident_tier = [](Entry e) {
    return static_cast<mem::TierId>(static_cast<std::uint64_t>(e) & 0xFF);
  };
  std::vector<Entry> ranking;
  for (std::size_t vi = 0; vi < workloads.size(); ++vi) {
    const WorkloadView& view = workloads[vi];
    const auto& tr = *view.tracker;
    const vm::PageTable& pt = view.as->tables().process_table();
    const vm::Vpn base = view.as->base_vpn();
    const std::uint64_t pages = tr.pages();
    const vm::LeafTable* leaf = nullptr;
    for (std::uint64_t p = 0; p < pages; ++p) {
      // One leaf covers each aligned 512-page run; absent leaf = the
      // whole run is unmapped.
      if ((p & (sim::kPagesPerHuge - 1)) == 0) leaf = pt.leaf_of(base + p);
      if (!leaf) {
        p |= sim::kPagesPerHuge - 1;
        continue;
      }
      const double h = tr.heat(p);
      if (!(h > 0.0)) continue;
      const vm::Pte pte = leaf->get(static_cast<unsigned>(p & 0x1FF));
      if (!pte.present()) continue;
      const auto heat_bits =
          std::bit_cast<std::uint32_t>(static_cast<float>(h));
      // The packed id is the view's *position in the span*, not
      // view.index: under churn the span is the compacted live subset, so
      // global slot indices would walk off its end in the issuing loop.
      const std::uint64_t rank =
          (static_cast<std::uint64_t>(~heat_bits) << 32) | vi;
      const std::uint64_t payload = (p << 8) | mem::tier_of(pte.pfn());
      ranking.push_back((static_cast<Entry>(rank) << 64) | payload);
    }
  }
  // Waterfall: pour the ranking down the tiers; record boundaries. The
  // anti-thrash margin is evaluated against the *previous* epoch's
  // boundaries (this epoch's are still forming).
  std::vector<double> prev = boundaries_;
  prev.resize(tiers, 0.0);
  boundaries_.assign(tiers, 0.0);

  // Only pages whose assigned tier differs from their current one cause
  // work, so the ranking is never fully sorted. nth_element cuts each
  // tier's budget off the front of the still-unplaced rest; the cut's
  // largest key is the tier's boundary (its coolest admitted page), and
  // only the partition's movers are sorted. Partitions are consecutive in
  // key order, so issuing them tier by tier visits the movers exactly as
  // a walk down the fully sorted ranking would.
  std::vector<std::uint64_t> issued(workloads.size(), 0);
  auto lo = ranking.begin();
  for (std::size_t tier = 0; tier < tiers && lo != ranking.end(); ++tier) {
    const auto assigned = static_cast<mem::TierId>(tier);
    const auto budget = static_cast<std::uint64_t>(
        params_.fill_fraction *
        static_cast<double>(topo.capacity_pages(assigned)));
    if (budget == 0) continue;
    const auto hi =
        lo + static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(
                 budget, static_cast<std::uint64_t>(ranking.end() - lo)));
    std::nth_element(lo, hi - 1, ranking.end());
    boundaries_[tier] = heat_of(*(hi - 1));
    const auto movers_end = std::partition(
        lo, hi, [&](Entry e) { return resident_tier(e) != assigned; });
    std::sort(lo, movers_end);
    for (auto it = lo; it != movers_end; ++it) {
      const Entry e = *it;
      const auto wl = static_cast<std::uint32_t>(e >> 64);
      const float heat = heat_of(e);
      const std::uint64_t page = static_cast<std::uint64_t>(e) >> 8;
      const mem::TierId current = resident_tier(e);
      WorkloadView& view = workloads[wl];
      if (issued[wl] >= params_.max_moves_per_workload) continue;
      // Anti-thrash: a page promoted from the adjacent slower tier must
      // clear last epoch's admission boundary with a margin — pages
      // living right at the boundary would otherwise flip tiers every
      // epoch.
      if (assigned + 1 == current && prev[assigned] > 0.0 &&
          heat <= params_.boundary_hysteresis * prev[assigned] &&
          heat >= prev[assigned] / params_.boundary_hysteresis) {
        continue;
      }
      // Provenance threshold: last epoch's admission boundary for the
      // tier the ruler applies to. A promotion had to clear the
      // *destination* boundary; a demotion fell under its *source*
      // boundary — using the destination cut for demotions (the old
      // behaviour) flips the benefit sign, since a demoted page is
      // usually the hottest of its new tier.
      const bool demote = assigned > current;
      auto req = make_request(view, page, assigned, mig::CopyMode::kAsync,
                              {.rank = issued[wl],
                               .threshold = demote ? prev[current]
                                                   : prev[assigned],
                               .queue_bias = demote ? -1.0 : 0.0});
      if (demote) {
        view.migration->enqueue_urgent(req);  // demotions free capacity first
      } else {
        view.migration->enqueue(req);
      }
      ++issued[wl];
    }
    lo = hi;
  }

  // Pages with zero heat that sit in the top tier sink one step down when
  // capacity is needed (bounded cold sweep; repeated epochs cascade them
  // further if they stay cold).
  const auto next_down =
      static_cast<mem::TierId>(std::min<std::size_t>(1, tiers - 1));
  for (WorkloadView& view : workloads) {
    if (topo.allocator(mem::kFastTier).free_pages() >
        topo.capacity_pages(mem::kFastTier) / 16) {
      break;  // no pressure
    }
    std::uint64_t swept = 0;
    TierHeatRanking fast_cold(view, mem::kFastTier, /*hottest_first=*/false);
    while (fast_cold.more()) {
      const std::uint64_t page = fast_cold.next();
      if (view.tracker->heat(page) > 0.0 || swept >= 256) break;
      // Zero-heat pages fell under the fast tier's admission boundary;
      // measuring against it keeps the demotion benefit positive.
      view.migration->enqueue_urgent(
          make_request(view, page, next_down, mig::CopyMode::kAsync,
                       {.rank = swept,
                        .threshold = prev[mem::kFastTier],
                        .queue_bias = -1.0}));
      ++swept;
    }
  }
}

}  // namespace vulcan::policy
