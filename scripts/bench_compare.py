#!/usr/bin/env python3
"""Compare google-benchmark counter JSON against a committed baseline.

CI's bench-smoke job runs bench_grad_micro once and feeds the JSON here
together with the baseline checked in under bench/baselines/. The
comparison gates on the shift-walk bench's two headline counters:

  walk_speedup       per-parameter PartialEvaluator loop wall-clock /
                     shared-prefix walk wall-clock for a full
                     parameter-shift gradient (same machine, same run,
                     so the ratio transfers across hardware)
  states_per_second  shifted-binding simulations per second of the walk
                     (absolute throughput; noisier across machines, which
                     is why the peak value is compared rather than
                     per-shape rows)

For each tracked counter the script takes the PEAK value across every
benchmark that reports it — the bench's best circuit shape — and compares
peaks. Only regressions gate: a current peak more than --warn-pct below
the baseline prints a warning, more than --fail-pct below fails the run
(exit 1). Improvements never fail; a >warn-pct improvement prints a
reminder to refresh the baseline so the gate keeps teeth.

Usage:
  bench_compare.py CURRENT.json BASELINE.json
      [--counters walk_speedup,states_per_second]
      [--warn-pct 10] [--fail-pct 25]

Exit codes: 0 ok (possibly with warnings), 1 regression beyond
--fail-pct or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_benchmarks(path: str) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"bench_compare: cannot read {path}: {err}")
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise SystemExit(f"bench_compare: {path} has no 'benchmarks' array")
    return benchmarks


def peak(benchmarks: list[dict], counter: str) -> tuple[float, str] | None:
    """Best (value, benchmark-name) for a counter, or None if unreported."""
    best: tuple[float, str] | None = None
    for bench in benchmarks:
        value = bench.get(counter)
        if isinstance(value, (int, float)):
            if best is None or value > best[0]:
                best = (float(value), str(bench.get("name", "?")))
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh --benchmark_out JSON")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--counters",
        default="walk_speedup,states_per_second",
        help="comma-separated counter names to gate on",
    )
    parser.add_argument("--warn-pct", type=float, default=10.0)
    parser.add_argument("--fail-pct", type=float, default=25.0)
    args = parser.parse_args()

    current = load_benchmarks(args.current)
    baseline = load_benchmarks(args.baseline)
    counters = [c.strip() for c in args.counters.split(",") if c.strip()]
    if not counters:
        raise SystemExit("bench_compare: no counters to compare")

    failed = False
    warned = False
    print(f"{'counter':<20} {'baseline':>12} {'current':>12} {'change':>9}  verdict")
    for counter in counters:
        base = peak(baseline, counter)
        cur = peak(current, counter)
        if base is None:
            raise SystemExit(
                f"bench_compare: baseline lacks counter '{counter}' — "
                "regenerate it from bench_grad_micro --benchmark_out"
            )
        if cur is None:
            print(f"{counter:<20} {base[0]:>12.4g} {'missing':>12} {'':>9}  FAIL")
            failed = True
            continue
        change_pct = (cur[0] - base[0]) / base[0] * 100.0 if base[0] else 0.0
        if change_pct <= -args.fail_pct:
            verdict = f"FAIL (regressed beyond {args.fail_pct:g}%)"
            failed = True
        elif change_pct <= -args.warn_pct:
            verdict = f"WARN (regressed beyond {args.warn_pct:g}%)"
            warned = True
        elif change_pct >= args.warn_pct:
            verdict = "ok (improved — consider refreshing the baseline)"
        else:
            verdict = "ok"
        print(
            f"{counter:<20} {base[0]:>12.4g} {cur[0]:>12.4g} "
            f"{change_pct:>+8.1f}%  {verdict}"
        )

    if failed:
        print(
            "bench_compare: counter regression beyond the fail threshold; "
            "if intentional, refresh the baseline JSON in the same change",
            file=sys.stderr,
        )
        return 1
    if warned:
        print("bench_compare: regression warnings above — not fatal", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
