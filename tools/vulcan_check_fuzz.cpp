// vulcan_check_fuzz — differential fuzz oracle driver (vulcan::check).
//
// Runs seeded randomized co-location scenarios through every policy at
// several --jobs levels, asserting that each run passes the invariant
// audit and that the deterministic artefacts are byte-identical across
// job counts. Exit 0 on a clean campaign, 1 on any failure, 2 on usage
// errors. CI runs this on a few fixed seeds (`scripts/smoke.sh fuzz`).
//
//   vulcan_check_fuzz --seed 3 --scenarios 2 --seconds 2.5
//   vulcan_check_fuzz --policies vulcan,tpp --jobs 1,4 --level basic
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include <vulcan/vulcan.hpp>

#include "cli.hpp"

using namespace vulcan;

namespace {

void usage() {
  std::puts(
      "vulcan_check_fuzz — differential fuzz oracle\n"
      "\n"
      "  --seed N         campaign seed (scenarios derive from it)   [1]\n"
      "  --scenarios N    randomized co-location scenarios           [2]\n"
      "  --jobs LIST      comma-separated battery worker counts whose\n"
      "                   artefacts must agree byte-for-byte     [1,2,4]\n"
      "  --policies LIST  comma-separated roster (default: all)\n"
      "  --seconds T      simulated seconds per scenario           [2.5]\n"
      "  --level L        audit level: off | basic | full         [full]\n"
      "  --vary-hotpath B on | off: re-run with the page-walk cache\n"
      "                   disabled and several translate-batch sizes,\n"
      "                   asserting identical artefacts             [on]\n"
      "  --vary-admission B  on | off: replay every third scenario with an\n"
      "                   admission controller wired-but-disabled (must\n"
      "                   match the reference artefacts byte-for-byte) and\n"
      "                   enabled+provenance (audits stay green, vetoed\n"
      "                   decisions leave no pending ledger rows)     [on]\n"
      "  --provenance B   on | off: enable the decision provenance ledger\n"
      "                   in every run — its exports join the artefact\n"
      "                   comparison, every decision must carry a linked\n"
      "                   outcome, and the residency cross-audit runs   [off]\n"
      "  --flight-on-fail DIR  after a scenario fails, re-run it with the\n"
      "                   flight recorder armed and drop the black-box\n"
      "                   dumps into DIR (created if missing)\n");
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream list(csv);
  while (std::getline(list, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  check::FuzzOptions options;
  cli::Args args(argc, argv);
  while (args.more()) {
    const std::string flag = args.flag();
    if (flag == "--help" || flag == "-h") {
      usage();
      return 0;
    } else if (flag == "--seed") {
      options.seed = args.u64();
    } else if (flag == "--scenarios") {
      options.scenarios = args.uint();
    } else if (flag == "--jobs") {
      const std::string list = args.next();
      options.jobs.clear();
      for (const std::string& j : split_list(list)) {
        const auto jobs = cli::parse_unsigned(j);
        if (!jobs) cli::invalid(flag, list);
        options.jobs.push_back(*jobs);
      }
    } else if (flag == "--policies") {
      options.policies = split_list(args.next());
    } else if (flag == "--seconds") {
      options.seconds = args.non_negative();
    } else if (flag == "--level") {
      const auto parsed = check::parse_audit_level(args.next());
      if (!parsed) {
        std::fprintf(stderr, "unknown audit level (off | basic | full)\n");
        return 2;
      }
      options.level = *parsed;
    } else if (flag == "--flight-on-fail") {
      options.flight_dir = args.next();
    } else if (flag == "--vary-hotpath") {
      options.vary_hotpath = args.on_off();
    } else if (flag == "--vary-admission") {
      options.vary_admission = args.on_off();
    } else if (flag == "--provenance") {
      options.provenance = args.on_off();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }

  if (!options.flight_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.flight_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n",
                   options.flight_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  std::printf(
      "campaign: seed=%llu scenarios=%u seconds=%.2f level=%s jobs=",
      (unsigned long long)options.seed, options.scenarios, options.seconds,
      check::audit_level_name(options.level));
  for (std::size_t i = 0; i < options.jobs.size(); ++i) {
    std::printf("%s%u", i ? "," : "", options.jobs[i]);
  }
  std::printf("\n");

  const check::FuzzResult result = check::run_differential_fuzz(options);

  std::printf(
      "scenarios=%u runs=%u audits_passed=%llu digest=%s\n",
      result.scenarios, result.runs,
      (unsigned long long)result.audits_passed,
      result.artefact_digest.c_str());
  for (const check::FuzzFailure& f : result.failures) {
    std::fprintf(stderr, "FAIL [%s] %s\n", f.scenario.c_str(),
                 f.what.c_str());
  }
  for (const std::string& path : result.flight_dumps) {
    std::fprintf(stderr, "flight dump: %s\n", path.c_str());
  }
  if (!result.ok) {
    std::fprintf(stderr, "vulcan_check_fuzz: %zu failure(s)\n",
                 result.failures.size());
    return 1;
  }
  std::puts("ok");
  return 0;
}
