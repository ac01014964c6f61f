#!/usr/bin/env python3
"""Gate a fresh bench JSON against a committed baseline.

Every battery, fleet and what-if run is deterministic in its scenario
identity, so on one machine the bytes match exactly; across compilers the
simulated arithmetic may round differently in the last ulps. The check
therefore fails only when:

  * an identity field (scenario, seed, run length, ...) differs;
  * a structural field differs (fleet per-policy window counts, the
    what-if per-app top-knob ranking);
  * the set of gated figures differs (a policy, app or key came or went);
  * a gated figure drifts beyond REL_TOL (with an ABS_FLOOR for figures
    that are zero for tolerance purposes).

The schema comes from the files themselves: a baseline with `whatif` is a
sensitivity report (`vulcan_whatif --out`), one with `churn_per_min` a fleet
battery, anything else a `--policies all` battery (`vulcan_sim
--bench-json`). A fresh file with `telemetry_off_ms` is a `vulcan_sim
--telemetry-bench` report instead: its fairness artefacts must be identical
with telemetry on and off, and its wall-clock overhead must stay within the
baseline's `telemetry_overhead_budget` (default 5%, plus a small absolute
slack so millisecond-scale runs don't flake on scheduler noise).

Usage:
    python3 scripts/check_baseline.py <fresh.json> <baseline.json>
"""

import json
import sys

REL_TOL = 0.005  # 0.5 %
ABS_FLOOR = 1e-6  # figures this small are "zero" for tolerance purposes
TELEMETRY_BUDGET = 0.05  # default overhead ceiling when the baseline has none
TELEMETRY_ABS_SLACK_MS = 5.0  # absolute wall-clock slack against noise

FLEET_TAIL_KEYS = ("jain_cumulative", "worst_slowdown_overall",
                   "worst_slowdown_p99", "jain_floor")
FLEET_ADMISSION_KEYS = FLEET_TAIL_KEYS + (
    "pages_migrated", "shootdown_ipis", "base_pages_migrated",
    "base_shootdown_ipis", "admitted", "vetoed")


def fail(kind, msg):
    print(f"{kind} baseline check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def flatten_battery(bench):
    """`policies` list -> {"<policy>.jain": x, "<policy>.app.<name>": y, ...}"""
    flat = {}
    for p in bench.get("policies", []):
        name = p["name"]
        flat[f"{name}.jain"] = p["jain"]
        flat[f"{name}.cfi"] = p["cfi"]
        for app in p.get("apps", []):
            flat[f"{name}.app.{app['name']}"] = app["slowdown"]
    return flat


def flatten_fleet(bench):
    """`policies` list -> {"<policy>.jain_cumulative": x, ...}

    When a policy row carries the nested admission-ablation object (the
    battery was run with `--admission on`), its tail-fairness figures and
    migration costs are flattened under `<policy>.admission.*` so the
    key-set check forces baseline and fresh run to agree on whether the
    ablation was recorded at all.
    """
    flat = {}
    for p in bench.get("policies", []):
        name = p["name"]
        for key in FLEET_TAIL_KEYS:
            flat[f"{name}.{key}"] = p[key]
        adm = p.get("admission")
        if adm is not None:
            for key in FLEET_ADMISSION_KEYS:
                flat[f"{name}.admission.{key}"] = adm[key]
    return flat


def fleet_windows(bench):
    # The window count is structural (epochs per window x run length): a
    # change means the tail table itself changed shape, not just a figure.
    return {p["name"]: p.get("windows") for p in bench.get("policies", [])}


# kind -> (identity fields, flatten, structural field name + extractor)
SCHEMAS = {
    "sensitivity": (
        ("scenario", "policy", "seed", "seconds"),
        lambda bench: bench.get("whatif", {}),
        ("top-knob ranking", lambda bench: bench.get("top_knob")),
    ),
    "fleet": (
        ("scenario", "seed", "simulated_s", "apps", "churn_per_min"),
        flatten_fleet,
        ("per-policy window counts", fleet_windows),
    ),
    "battery": (
        ("scenario", "seed", "simulated_s"),
        flatten_battery,
        None,
    ),
}


def schema_of(base):
    if "whatif" in base:
        return "sensitivity"
    if "churn_per_min" in base:
        return "fleet"
    return "battery"


def check_telemetry(bench, base):
    """Gate a --telemetry-bench report against the baseline's budget."""
    budget = base.get("telemetry_overhead_budget", TELEMETRY_BUDGET)
    if not bench.get("identical_fairness"):
        fail("telemetry", "telemetry changed the fairness artefacts "
             "(must be read-only)")
    off_ms = bench["telemetry_off_ms"]
    on_ms = bench["telemetry_on_ms"]
    allowed_ms = budget * off_ms + TELEMETRY_ABS_SLACK_MS
    delta_ms = on_ms - off_ms
    if delta_ms > allowed_ms:
        fail(
            "telemetry",
            f"telemetry overhead {delta_ms:.1f} ms over a {off_ms:.1f} ms "
            f"run exceeds the {budget:.0%} budget (+{allowed_ms:.1f} ms)",
        )
    print(
        f"telemetry overhead ok: +{delta_ms:.1f} ms on {off_ms:.1f} ms "
        f"({bench['overhead']:+.1%}, budget {budget:.0%}), "
        "fairness artefacts identical"
    )


def check(fresh, base):
    kind = schema_of(base)
    identity, flatten, structural = SCHEMAS[kind]

    for field in identity:
        if fresh.get(field) != base.get(field):
            fail(kind, f"{field} differs: baseline {base.get(field)!r}, "
                 f"got {fresh.get(field)!r}")

    if structural is not None:
        what, extract = structural
        if extract(fresh) != extract(base):
            fail(kind, f"{what} changed: baseline {extract(base)}, "
                 f"got {extract(fresh)}")

    fresh_keys = flatten(fresh)
    base_keys = flatten(base)
    if set(fresh_keys) != set(base_keys):
        only_fresh = sorted(set(fresh_keys) - set(base_keys))
        only_base = sorted(set(base_keys) - set(fresh_keys))
        fail(kind, f"key sets differ (new: {only_fresh}, missing: {only_base})")

    drifted = []
    for key in sorted(base_keys):
        want, got = base_keys[key], fresh_keys[key]
        tol = max(REL_TOL * abs(want), ABS_FLOOR)
        if abs(got - want) > tol:
            drifted.append(f"  {key}: baseline {want!r}, got {got!r}")
    if drifted:
        fail(kind, "drift beyond 0.5%:\n" + "\n".join(drifted))

    print(f"{kind} baseline ok: {len(base_keys)} keys within 0.5%")


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(sys.argv[1]) as f:
        fresh = json.load(f)
    with open(sys.argv[2]) as f:
        base = json.load(f)
    if "telemetry_off_ms" in fresh:
        check_telemetry(fresh, base)
    else:
        check(fresh, base)


if __name__ == "__main__":
    main()
