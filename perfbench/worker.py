"""One workload run in a fresh interpreter; ``run.py`` starts it.

Protocol on standard output: the line ``READY`` once stickylab is imported
and the tiny warm-up is done (``run.py`` times set-up up to this line), then,
unless ``--setup-only``, one JSON line with the run's measurements. Anything
stickylab prints goes elsewhere.

    python3 perfbench/worker.py --workload fbm-grid --seed 20240613 --seconds 30
    python3 perfbench/worker.py --workload fbm-grid --record   # rewrite references

``--record`` runs the workload once at the default seed and stores each
experiment's digest and CSV SHA-256 in ``references.json``; do it only when
an output change is intended, and say so.

The timed loop repeats the workload while the next iteration is expected to
end within ``--seconds``; it always runs once, so ``--seconds 0`` runs it
exactly once.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
DEFAULT_SEED = 20240613


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    return parser.parse_args(argv)


def _load_references(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED or not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as fh:
        return json.load(fh)["workloads"].get(workload, {})


def _checker(references: dict):
    """Check one outcome; verdicts are memoised by CSV hash, since every
    iteration of a run repeats the same outputs."""
    import check

    seen: dict = {}

    def run(outcome) -> dict:
        if outcome.csv is None:
            return {"name": outcome.name, "sha256": None, "problems": [outcome.error],
                    "sha_mismatch": False, "passage": None}
        sha = check.sha256(outcome.csv)
        key = (outcome.name, sha)
        if key not in seen:
            doc = check.digest(outcome.csv)
            problems = check.invariants(doc)
            ref = references.get(outcome.name)
            if references and ref is None:
                problems.append("no reference stored for this experiment")
            elif ref is not None:
                problems += check.compare(ref["digest"], doc)
            prov = doc["provenance"]
            seen[key] = {
                "name": outcome.name,
                "sha256": sha,
                "problems": problems,
                "sha_mismatch": ref is not None and ref["sha256"] != sha,
                "passage": (prov["requested_paths"], prov["excluded_paths"])
                if "excluded_paths" in prov else None,
            }
        return seen[key]

    return run


def _record(workload: str, out_dir: str) -> None:
    import check
    from workloads import WORKLOADS

    outcomes, _ = WORKLOADS[workload](DEFAULT_SEED, out_dir)
    failed = [o.name for o in outcomes if o.csv is None]
    if failed:
        raise SystemExit(f"cannot record references: {failed} failed")
    data = {"seed": DEFAULT_SEED, "workloads": {}}
    if os.path.exists(REFERENCES):
        with open(REFERENCES) as fh:
            data = json.load(fh)
    data["workloads"][workload] = {
        o.name: {"sha256": check.sha256(o.csv), "digest": check.digest(o.csv)}
        for o in outcomes
    }
    with open(REFERENCES, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy
    import scipy

    import stickylab
    from workloads import WORKLOADS, warm_up

    source = os.path.join(ROOT, "src", "stickylab")
    if os.path.dirname(os.path.abspath(stickylab.__file__)) != source:
        raise SystemExit(f"imported stickylab from {stickylab.__file__}, not from this checkout")
    # cli-sweep writes its CSVs here; the benchmark writes only inside its checkout
    with tempfile.TemporaryDirectory(prefix=".perfbench_tmp-", dir=ROOT) as out_dir:
        warm_up(args.workload, args.seed, out_dir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.record:
            _record(args.workload, out_dir)
            return 0

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        check = _checker(_load_references(args.workload, args.seed))
        run = WORKLOADS[args.workload]
        wall, results, attempted, failed = [], [], 0, 0
        while True:
            start = time.perf_counter()
            outcomes, path_steps = run(args.seed, out_dir)
            wall.append(time.perf_counter() - start)
            results = [check(o) for o in outcomes]
            del outcomes
            attempted += len(results)
            failed += sum(bool(r["problems"]) for r in results)
            if sum(wall) + statistics.median(wall) > args.seconds:
                break  # the next iteration would end past --seconds
        for r in results:
            for problem in r["problems"]:
                print(f"perfbench: {args.workload} {r['name']}: {problem}", file=sys.stderr)
        passages = [r["passage"] for r in results if r["passage"]]
        report = {
            "iterations": len(wall),
            "wall_s": wall,
            "path_steps": path_steps,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": attempted,
            "failed": failed,
            "sha256": {r["name"]: r["sha256"] for r in results},
            "sha_mismatch": sum(r["sha_mismatch"] for r in results),
            "passage_kept_frac": 1.0 - sum(e for _, e in passages) / sum(q for q, _ in passages)
            if passages else 0.0,
            "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                         "scipy": scipy.__version__},
            "trace": tracer.snapshot() if tracer else None,
        }
        print(json.dumps(report), flush=True)
        return 0


if __name__ == "__main__":
    sys.exit(main())
