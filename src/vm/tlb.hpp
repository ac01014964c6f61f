// Per-core TLB model: set-associative, true-LRU within a set, separate
// arrays for 4 KB and 2 MB translations (mirroring x86 dTLB structure).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/scope.hpp"
#include "vm/types.hpp"

namespace vulcan::vm {

class Tlb {
 public:
  /// Sentinel for entries installed without a translation target (legacy
  /// call sites). The invariant auditor skips PFN validation for these.
  static constexpr std::uint64_t kUnknownPfn = ~std::uint64_t{0};
  struct Config {
    unsigned base_entries = 1536;  ///< 4 KB-page entries (Ice Lake STLB size)
    unsigned huge_entries = 64;    ///< 2 MB-page entries
    unsigned ways = 4;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;  ///< single-entry invalidations received
    std::uint64_t full_flushes = 0;
  };

  Tlb() : Tlb(Config{}) {}
  explicit Tlb(Config config);

  /// Translate lookup: true on hit (base entry for `vpn` or a huge entry
  /// covering its 2 MB chunk). Updates LRU and hit/miss stats.
  bool lookup(ProcessId pid, Vpn vpn);

  /// Install a 4 KB translation (call after a miss + walk). `pfn` records
  /// the walked translation so audits can cross-check cached entries
  /// against the live page tables; kUnknownPfn opts out.
  void insert(ProcessId pid, Vpn vpn, std::uint64_t pfn = kUnknownPfn);

  /// Install a 2 MB translation for the chunk containing `vpn`.
  /// `chunk_pfn` is the representative translation (first page of the
  /// chunk); kUnknownPfn opts out of audit cross-checks.
  void insert_huge(ProcessId pid, Vpn vpn,
                   std::uint64_t chunk_pfn = kUnknownPfn);

  /// Drop the 4 KB entry for `vpn` (and any huge entry covering it —
  /// hardware must not keep a stale larger mapping).
  void invalidate(ProcessId pid, Vpn vpn);

  /// Drop every entry belonging to `pid` (PCID-targeted flush on process
  /// teardown). Each dropped entry counts as one invalidation.
  void invalidate_pid(ProcessId pid);

  /// Drop everything (CR3 write without PCID).
  void flush_all();

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

  /// One live entry, decoded for inspection. `page` is the vpn for base
  /// entries and the global 2 MB chunk number (vpn / 512) for huge ones.
  struct EntryView {
    ProcessId pid = 0;
    std::uint64_t page = 0;
    std::uint64_t pfn = kUnknownPfn;
    bool huge = false;
  };

  /// Visit every live entry (base then huge, array order). Auditor hook:
  /// each cached translation must match the current page tables. Templated
  /// so per-entry audit loops inline instead of paying a std::function
  /// call per cached translation.
  template <typename Fn>
  void visit_entries(Fn&& fn) const {
    const auto scan = [&](const SetArray& arr, bool huge) {
      for (const Entry& e : arr.entries) {
        if (e.tag == 0) continue;
        EntryView view;
        view.pid = static_cast<ProcessId>((e.tag >> 40) - 1);
        view.page = e.tag & ((std::uint64_t{1} << 40) - 1);
        view.pfn = e.pfn;
        view.huge = huge;
        fn(view);
      }
    };
    scan(base_, /*huge=*/false);
    scan(huge_, /*huge=*/true);
  }

  /// Live entries across both arrays.
  std::size_t live_entries() const;

  /// Attach observability. Per-core TLBs typically share one scope, so the
  /// registry aggregates hits/misses/invalidations across the socket.
  void set_obs(const obs::Scope& scope) {
    obs_hits_ = &scope.counter("hits");
    obs_misses_ = &scope.counter("misses");
    obs_invalidations_ = &scope.counter("invalidations");
    obs_full_flushes_ = &scope.counter("full_flushes");
  }

 private:
  struct Entry {
    std::uint64_t tag = 0;  // (pid << 40) | page-number; 0 == invalid
    std::uint64_t lru = 0;
    std::uint64_t pfn = kUnknownPfn;  // translation target at install time
  };

  struct SetArray {
    std::vector<Entry> entries;  // sets * ways, row-major
    unsigned sets = 0;
    unsigned ways = 0;

    bool lookup(std::uint64_t tag, std::uint64_t tick);
    void insert(std::uint64_t tag, std::uint64_t tick, std::uint64_t pfn);
    void invalidate(std::uint64_t tag);
    void clear();
  };

  static std::uint64_t make_tag(ProcessId pid, std::uint64_t page) {
    // +1 keeps tag 0 reserved as "invalid".
    return ((static_cast<std::uint64_t>(pid) + 1) << 40) | page;
  }

  Config config_;
  SetArray base_;
  SetArray huge_;
  Stats stats_;
  std::uint64_t tick_ = 0;
  obs::Counter* obs_hits_ = &obs::detail::dummy_counter;
  obs::Counter* obs_misses_ = &obs::detail::dummy_counter;
  obs::Counter* obs_invalidations_ = &obs::detail::dummy_counter;
  obs::Counter* obs_full_flushes_ = &obs::detail::dummy_counter;
};

}  // namespace vulcan::vm
