"""Perf-regression gate over ``BENCH_hotpath.json``.

``--write`` measures the current tree with ``bench_hotpath`` and stores
the results (plus a machine-speed calibration factor) in
``BENCH_hotpath.json`` at the repository root.  ``--check`` re-measures
and fails (exit 1) if any cell's *normalized* throughput regressed by
more than ``--threshold`` (default 25%).

``--write --only <section-prefix>`` re-measures just the sections whose
name starts with the prefix (``full``, ``smoke``, ``stacked``,
``plans``) and merges them into the existing baseline file, leaving
every other section's cells untouched — so adding one new axis does not
churn (or silently re-bless) the rest of the baseline.

Raw items/s numbers are not comparable across machines, so both write
and check time a fixed numpy workload; throughput is normalized by that
calibration before comparison.  The check stays meaningful on a laptop
or a CI runner alike — it catches "this commit made the hot path slower",
not "this machine is slower".

Usage::

    PYTHONPATH=src python benchmarks/regress.py --write
    PYTHONPATH=src python benchmarks/regress.py --write --only plans
    PYTHONPATH=src python benchmarks/regress.py --check --smoke   # CI job
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from bench_hotpath import (equivalence_gate, run_grid, run_plans_axis,
                           run_stacked_axis)

DEFAULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
SMOKE_GRID = dict(models=("mlp",), streams=("slight",), num_batches=16,
                  repeats=3)
FULL_GRID = dict(models=("lr", "mlp", "cnn"),
                 streams=("slight", "sudden", "reoccurring"),
                 num_batches=60, repeats=5)
#: One size backs both write and check for the plans axis, so the cells
#: line up; smoke=False keeps the 1.3x MLP floor enforced.
PLANS_AXIS = dict(num_batches=40, repeats=3, smoke=False)

#: Baseline sections, in file order; ``--only`` matches these by prefix.
SECTIONS = ("full", "smoke", "stacked", "plans")


def calibration_seconds(rounds: int = 5) -> float:
    """Median wall-clock of a fixed numpy workload (machine-speed probe).

    The workload mirrors the hot path's mix: small gemms, reductions, and
    elementwise ufuncs on float64.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(256, 64))
    b = rng.normal(size=(64, 64))
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc = a
        for _ in range(200):
            acc = np.maximum(acc @ b, 0.0)
            acc = acc - acc.max(axis=1, keepdims=True)
            np.exp(acc).sum()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def _normalized(results: list[dict], calib: float) -> dict:
    """Machine-invariant score per grid cell: items/s x calibration secs."""
    return {
        f"{entry['model']}/{entry['stream']}/{entry['mode']}":
            entry["items_per_s"] * calib
        for entry in results
    }


def _measure(smoke: bool) -> tuple[list[dict], float]:
    grid = SMOKE_GRID if smoke else FULL_GRID
    calib = calibration_seconds()
    results = run_grid(grid["models"], grid["streams"], grid["num_batches"],
                       grid["repeats"])
    return results, calib


def _measure_stacked() -> tuple[list[dict], float, int]:
    """The stacked-engine axis plus its own gates (0 = both passed).

    The same axis backs write and check, so baseline and measurement
    cells always line up.
    """
    calib = calibration_seconds()
    results = run_stacked_axis()
    status = 0
    if any(not entry["equivalent"] for entry in results):
        print("FAIL: stacked and serial execution disagree bitwise",
              file=sys.stderr)
        status = 1
    if any(not entry["meets_floor"] for entry in results):
        print("FAIL: stacked speedup below the 2x floor at N >= 32",
              file=sys.stderr)
        status = 1
    return results, calib, status


def _normalized_stacked(results: list[dict], calib: float) -> dict:
    return {
        f"stacked/{entry['model']}/x{entry['num_models']}":
            entry["stacked_items_per_s"] * calib
        for entry in results
    }


def _measure_plans() -> tuple[list[dict], float, int]:
    """The captured-plan axis plus its own gates (0 = all passed)."""
    calib = calibration_seconds()
    results, status = run_plans_axis(**PLANS_AXIS)
    return results, calib, status


def _normalized_plans(results: list[dict], calib: float) -> dict:
    return {f"plans/{entry['model']}": entry["plans_items_per_s"] * calib
            for entry in results}


def _measure_section(section: str) -> tuple[dict, int]:
    """Measure one baseline section; returns (payload, status)."""
    if section in ("full", "smoke"):
        results, calib = _measure(smoke=(section == "smoke"))
        status = 0
    elif section == "stacked":
        results, calib, status = _measure_stacked()
    else:  # plans
        results, calib, status = _measure_plans()
    return {"calibration_seconds": calib, "results": results}, status


def write(path: pathlib.Path, only: str | None = None) -> int:
    sections = [name for name in SECTIONS
                if only is None or name.startswith(only)]
    if not sections:
        print(f"FAIL: --only {only!r} matches no section; have "
              f"{', '.join(SECTIONS)}", file=sys.stderr)
        return 1
    if only is not None and path.exists():
        payload = json.loads(path.read_text())
    elif only is not None:
        print(f"FAIL: no baseline at {path} to merge --only {only!r} into; "
              f"run a full --write first", file=sys.stderr)
        return 1
    else:
        payload = {"schema": 1}
    if not equivalence_gate():
        print("FAIL: equivalence gate broken; refusing to write a baseline",
              file=sys.stderr)
        return 1
    for section in sections:
        section_payload, status = _measure_section(section)
        if status:
            print("refusing to write a baseline", file=sys.stderr)
            return 1
        payload[section] = section_payload
    path.write_text(json.dumps(payload, indent=2) + "\n")
    verb = "merged into" if only is not None else "wrote"
    print(f"{verb} {path} ({', '.join(sections)})", file=sys.stderr)
    return 0


def check(path: pathlib.Path, smoke: bool, threshold: float) -> int:
    if not path.exists():
        print(f"FAIL: no baseline at {path}; run --write first",
              file=sys.stderr)
        return 1
    baseline = json.loads(path.read_text())
    section = baseline["smoke" if smoke else "full"]
    if not equivalence_gate():
        print("FAIL: optimized and reference modes no longer produce "
              "identical accuracy sequences", file=sys.stderr)
        return 1
    results, calib = _measure(smoke)
    stored = _normalized(section["results"],
                         section["calibration_seconds"])
    current = _normalized(results, calib)
    stacked_section = baseline.get("stacked")
    if stacked_section is not None:
        stacked_results, stacked_calib, status = _measure_stacked()
        if status:
            return 1
        stored.update(_normalized_stacked(
            stacked_section["results"],
            stacked_section["calibration_seconds"]))
        current.update(_normalized_stacked(stacked_results, stacked_calib))
    plans_section = baseline.get("plans")
    if plans_section is not None:
        plans_results, plans_calib, status = _measure_plans()
        if status:
            return 1
        stored.update(_normalized_plans(
            plans_section["results"],
            plans_section["calibration_seconds"]))
        current.update(_normalized_plans(plans_results, plans_calib))
    failures = []
    for cell, reference_score in stored.items():
        score = current.get(cell)
        if score is None:
            continue
        ratio = score / reference_score
        status = "ok" if ratio >= 1.0 - threshold else "REGRESSED"
        print(f"{cell:>28}: {ratio:6.2f}x vs baseline  [{status}]",
              file=sys.stderr)
        if ratio < 1.0 - threshold:
            failures.append((cell, ratio))
    if failures:
        print(f"FAIL: {len(failures)} cell(s) regressed more than "
              f"{threshold:.0%}: "
              + ", ".join(f"{c} ({r:.2f}x)" for c, r in failures),
              file=sys.stderr)
        return 1
    print("perf gate passed", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true",
                        help="measure and store a new baseline")
    action.add_argument("--check", action="store_true",
                        help="measure and compare against the baseline")
    parser.add_argument("--smoke", action="store_true",
                        help="with --check: compare the CI-sized section only")
    parser.add_argument("--only", metavar="SECTION",
                        help="with --write: re-measure only sections whose "
                             "name starts with this prefix and merge them "
                             "into the existing baseline")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional slowdown (default 0.25)")
    parser.add_argument("--path", type=pathlib.Path, default=DEFAULT_PATH,
                        help=f"baseline file (default {DEFAULT_PATH})")
    args = parser.parse_args(argv)
    if args.only and not args.write:
        parser.error("--only requires --write")
    if args.write:
        return write(args.path, only=args.only)
    return check(args.path, args.smoke, args.threshold)


if __name__ == "__main__":
    raise SystemExit(main())
