#!/usr/bin/env python3
"""Compare a fresh bench run against its committed baseline.

Works for every harness emitting the encodesat-bench-* JSON shape
(bench_primes' encodesat-bench-primes-v2, bench_service's
encodesat-bench-service-v1, ...); the two files must carry the same
schema string as each other.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--max-regress PCT]

Checks, per case name present in BOTH files:

  * determinism guard — `work_units`, `folds`, `num_terms`, `truncated`
    and the v2 `counters` object (arena allocs/reuses and — for the
    solve_cache_* repeat-workload cases — the solve cache's
    `cache_hits`/`cache_misses`) must match the baseline exactly.
    These are pure functions of the algorithm (no wall-clock dependence),
    so any drift means the fold changed behaviour — did more work,
    allocated more terms, stopped recognising renamed duplicates — not
    just speed.  This is a hard failure regardless of timing.
  * histogram guard — the optional per-case `histograms` object
    (bench_service v2: the `solve.work` bucket profile of the warm
    workload) must match bucket for bucket: a count that moves to a
    different bucket means a request paid a different amount of pipeline
    work.  Hard failure, like the counters; wall-time histogram *sums*
    are never emitted here, so timing noise cannot trip it.
  * wall-time regression — `wall_seconds` may not exceed the baseline by
    more than --max-regress percent (default 20).  Cases whose baseline
    time is below MIN_SECONDS (0.05 s) are exempt: at microsecond scale
    the ratio is all noise.

Improvements are reported but never fail.  Exit status 0 = pass, 1 = any
failure, 2 = usage / schema error.

To refresh a committed baseline after an intentional change (see the
"Performance" section of docs/API.md):

    ./build/bench/bench_primes --reps 3 --out bench/BENCH_primes.json
    ./build/bench/bench_service --reps 3 --out bench/BENCH_service.json
"""

import json
import sys

MIN_SECONDS = 0.05
SCHEMA_PREFIX = "encodesat-bench-"


def load(path, want_schema=None):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"compare_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    schema = data.get("schema")
    if not isinstance(schema, str) or not schema.startswith(SCHEMA_PREFIX):
        print(f"compare_bench: {path}: schema {schema!r} is not an "
              f"{SCHEMA_PREFIX}* schema", file=sys.stderr)
        sys.exit(2)
    if want_schema is not None and schema != want_schema:
        print(f"compare_bench: {path}: schema {schema!r} != baseline's "
              f"{want_schema!r}", file=sys.stderr)
        sys.exit(2)
    return schema, {c["name"]: c for c in data.get("cases", [])}


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    max_regress = 20.0
    it = iter(argv[1:])
    for a in it:
        if a == "--max-regress":
            try:
                max_regress = float(next(it))
            except (StopIteration, ValueError):
                print("compare_bench: --max-regress needs a number", file=sys.stderr)
                return 2
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    schema, base = load(args[0])
    _, cur = load(args[1], want_schema=schema)
    shared = [n for n in base if n in cur]
    if not shared:
        print("compare_bench: no common case names between the two files",
              file=sys.stderr)
        return 2
    for name in cur:
        if name not in base:
            print(f"  note  {name}: new case, no baseline yet")

    failures = 0
    for name in shared:
        b, c = base[name], cur[name]
        for key in ("work_units", "folds", "num_terms", "truncated"):
            if b.get(key) != c.get(key):
                print(f"  FAIL  {name}: {key} {b.get(key)} -> {c.get(key)} "
                      "(determinism guard: algorithm output changed)")
                failures += 1
        bc, cc = b.get("counters", {}), c.get("counters", {})
        for key in sorted(set(bc) | set(cc)):
            if bc.get(key) != cc.get(key):
                print(f"  FAIL  {name}: counters.{key} {bc.get(key)} -> "
                      f"{cc.get(key)} (determinism guard: work profile "
                      "changed)")
                failures += 1
        bh, ch = b.get("histograms", {}), c.get("histograms", {})
        for hname in sorted(set(bh) | set(ch)):
            bb = bh.get(hname, {}).get("buckets", {})
            cb = ch.get(hname, {}).get("buckets", {})
            for le in sorted(set(bb) | set(cb), key=lambda s: int(s)):
                if bb.get(le) != cb.get(le):
                    print(f"  FAIL  {name}: histograms.{hname} bucket "
                          f"{le} {bb.get(le)} -> {cb.get(le)} "
                          "(determinism guard: work distribution changed)")
                    failures += 1
        bt, ct = b["wall_seconds"], c["wall_seconds"]
        if bt < MIN_SECONDS:
            print(f"  ok    {name}: baseline {bt:.6f}s below {MIN_SECONDS}s floor,"
                  " timing exempt")
            continue
        pct = (ct - bt) / bt * 100.0
        if pct > max_regress:
            print(f"  FAIL  {name}: wall {bt:.3f}s -> {ct:.3f}s "
                  f"(+{pct:.1f}% > {max_regress:.0f}% budget)")
            failures += 1
        else:
            word = "slower" if pct > 0 else "faster"
            print(f"  ok    {name}: wall {bt:.3f}s -> {ct:.3f}s "
                  f"({abs(pct):.1f}% {word})")

    if failures:
        print(f"compare_bench: {failures} failure(s)")
        return 1
    print(f"compare_bench: all {len(shared)} case(s) within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
