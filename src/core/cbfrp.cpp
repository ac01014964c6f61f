#include "core/cbfrp.hpp"

#include <algorithm>
#include <cassert>

namespace vulcan::core {

CbfrpResult Cbfrp::partition(const std::vector<CbfrpWorkload>& workloads,
                             std::uint64_t total_fast_pages,
                             sim::Rng& rng) const {
  const std::size_t n = workloads.size();
  CbfrpResult result;
  result.credits.reserve(n);
  for (const auto& w : workloads) result.credits.push_back(w.credits);
  result.alloc.assign(n, 0);
  if (n == 0) return result;

  const std::uint64_t gfmc = total_fast_pages / n;
  const std::uint64_t unit = std::max<std::uint64_t>(1, params_.unit_pages);

  // Line 1-2: baseline allocation, capped at the guaranteed share.
  for (std::size_t i = 0; i < n; ++i) {
    result.alloc[i] = std::min(workloads[i].demand, gfmc);
  }

  // Lines 3-5: borrower/donor sets. A donor's surplus is the untaken part
  // of its guaranteed share.
  auto is_borrower = [&](std::size_t i) {
    return result.alloc[i] < workloads[i].demand;
  };
  std::vector<std::uint64_t> surplus(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    surplus[i] = gfmc - result.alloc[i];  // >= 0 by construction
  }

  auto pick_borrower = [&]() -> std::ptrdiff_t {
    // LC borrowers first; within a class, the largest gap (deterministic).
    std::ptrdiff_t best = -1;
    bool best_lc = false;
    std::uint64_t best_gap = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!is_borrower(i)) continue;
      const bool lc = workloads[i].latency_critical;
      const std::uint64_t gap = workloads[i].demand - result.alloc[i];
      if (best < 0 || (lc && !best_lc) ||
          (lc == best_lc && gap > best_gap)) {
        best = static_cast<std::ptrdiff_t>(i);
        best_lc = lc;
        best_gap = gap;
      }
    }
    return best;
  };

  auto pick_donor = [&]() -> std::ptrdiff_t {
    // Line 9: donor with minimum credits.
    std::ptrdiff_t best = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (surplus[i] == 0) continue;
      if (best < 0 || result.credits[i] <
                          result.credits[static_cast<std::size_t>(best)]) {
        best = static_cast<std::ptrdiff_t>(i);
      }
    }
    return best;
  };

  auto is_victim = [&](std::size_t i, std::size_t borrower) {
    return i != borrower && !workloads[i].latency_critical &&
           result.alloc[i] > gfmc;
  };
  auto pick_be_victim = [&](std::size_t borrower) -> std::ptrdiff_t {
    // Line 12: random BE task with alloc above GFMC. Two passes — count,
    // then walk to the drawn index — so the per-unit transfer loop does
    // not build a candidate vector every iteration. The rng draw and the
    // chosen victim are identical to the materialised version.
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) count += is_victim(i, borrower);
    if (count == 0) return -1;
    std::uint64_t k = rng.below(count);
    for (std::size_t i = 0; i < n; ++i) {
      if (is_victim(i, borrower) && k-- == 0) {
        return static_cast<std::ptrdiff_t>(i);
      }
    }
    return -1;
  };

  // Lines 6-17: the transfer loop. Bounded by total capacity / unit.
  std::uint64_t guard = total_fast_pages / unit + n + 1;
  while (guard-- > 0) {
    const std::ptrdiff_t bs = pick_borrower();
    if (bs < 0) break;  // all demands met
    const auto b = static_cast<std::size_t>(bs);
    const std::uint64_t gap = workloads[b].demand - result.alloc[b];

    const std::ptrdiff_t ds = pick_donor();
    if (ds >= 0) {
      const auto d = static_cast<std::size_t>(ds);
      // Fast path: with a single borrower and a single donor the picks are
      // forced every step, so stream all full-unit transfers of this pair
      // in one go instead of re-scanning per unit. Credits still accrue
      // one unit at a time — repeated += 1.0 rounds differently from
      // += k for arbitrary doubles, and the result must stay bit-identical
      // to the stepwise loop.
      std::size_t borrowers = 0;
      std::size_t donors = 0;
      for (std::size_t i = 0; i < n; ++i) {
        borrowers += is_borrower(i);
        donors += surplus[i] > 0;
      }
      const std::uint64_t k = std::min(
          {gap / unit, surplus[d] / unit, guard + 1});
      if (borrowers == 1 && donors == 1 && k > 1) {
        surplus[d] -= k * unit;
        result.alloc[b] += k * unit;
        for (std::uint64_t j = 0; j < k; ++j) {
          result.credits[d] += 1.0;
          result.credits[b] -= 1.0;
        }
        result.transfers += k;
        guard -= k - 1;
        continue;
      }
      const std::uint64_t amount = std::min({gap, surplus[d], unit});
      surplus[d] -= amount;
      result.alloc[b] += amount;
      // Karma bookkeeping: donating earns, borrowing spends.
      const double units = static_cast<double>(amount) /
                           static_cast<double>(unit);
      result.credits[d] += units;
      result.credits[b] -= units;
      ++result.transfers;
      continue;
    }

    if (workloads[b].latency_critical) {
      // Mirror of the donor streaming above: with a single borrower and a
      // single reclaim victim, every unit step draws rng.below(1) (which
      // still advances the generator) and moves one unit from the same
      // victim. Stream the full-unit steps, consuming exactly one draw
      // per step so the rng sequence matches the stepwise loop.
      std::size_t borrowers = 0;
      std::size_t victims = 0;
      std::size_t v = 0;
      for (std::size_t i = 0; i < n; ++i) {
        borrowers += is_borrower(i);
        if (is_victim(i, b)) {
          ++victims;
          v = i;
        }
      }
      if (borrowers == 1 && victims == 1) {
        const std::uint64_t k = std::min(
            {gap / unit, (result.alloc[v] - gfmc) / unit, guard + 1});
        if (k > 1) {
          result.alloc[v] -= k * unit;
          result.alloc[b] += k * unit;
          for (std::uint64_t j = 0; j < k; ++j) {
            (void)rng.below(1);
            result.credits[v] += 1.0;
            result.credits[b] -= 1.0;
          }
          result.reclaims += k;
          guard -= k - 1;
          continue;
        }
      }
      const std::ptrdiff_t vs = pick_be_victim(b);
      if (vs >= 0) {
        const auto victim = static_cast<std::size_t>(vs);
        const std::uint64_t amount =
            std::min({gap, result.alloc[victim] - gfmc, unit});
        result.alloc[victim] -= amount;
        result.alloc[b] += amount;
        const double units = static_cast<double>(amount) /
                             static_cast<double>(unit);
        result.credits[victim] += units;
        result.credits[b] -= units;
        ++result.reclaims;
        continue;
      }
    }
    break;  // line 15: nothing left to give
  }

  // Invariant: never over-allocate the managed capacity.
  std::uint64_t total = 0;
  for (const auto a : result.alloc) total += a;
  assert(total <= total_fast_pages);
  return result;
}

}  // namespace vulcan::core
