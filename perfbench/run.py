"""stickylab benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload fbm-grid --seed 20240613 --seconds 30 --trace 0

Run from the root of a checkout; stickylab is imported from its ``src/``.
Every run starts fresh single-threaded interpreters (``STICKYLAB_THREADS=1``)
and runs experiments back to back in one of them: one closed-loop client.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of the
warm, timed section, config to rendered CSV bytes), ``path_steps_per_s``,
``peak_rss_mb`` (``ru_maxrss`` of the process that ran only this workload)
and ``setup_s`` (median, over several fresh interpreters, of the time from
start to stickylab imported and a tiny warm-up done).

``--trace 1`` runs one iteration of the workload untraced and two traced
(``--seconds`` is not used), and reports per-layer call counts, self times
and boundary counters per iteration. It
fails the run when a span the workload should exercise records no call,
when call counts differ between the two traced runs, or when tracing changes
any CSV byte. No layer queues or retries work, so there is no waiting time
to report.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (experiments run / failed their output check or
raised) and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from spans import DOMINANT, missing_spans, per_layer_metrics  # noqa: E402

DEFAULT_SEED = 20240613
SETUP_SAMPLES = 3
# a run is killed this long after --seconds: set-up interpreters, the last
# iteration's overrun and the output check all fit well within it
MARGIN_S = 140.0
# one thread everywhere; no transparent huge pages for numpy's large arrays,
# whose availability made peak RSS flip between two values from run to run
ENV = dict(os.environ, STICKYLAB_THREADS="1", OMP_NUM_THREADS="1",
           OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", NUMPY_MADVISE_HUGEPAGE="0")


class BenchError(Exception):
    pass


def _spawn(workload: str, seed: int, extra: list[str], deadline: float):
    """Run one worker; return its time to READY and its JSON report."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(extra)} exited with code {code}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def _caches() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _environment(report: dict) -> dict:
    return {"nproc": os.cpu_count(), **report["versions"], **_caches(),
            "STICKYLAB_THREADS": ENV["STICKYLAB_THREADS"]}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    setup = [_spawn(workload, seed, ["--setup-only"], deadline)[0]
             for _ in range(SETUP_SAMPLES - 1)]
    ready_s, report = _spawn(workload, seed, ["--seconds", str(seconds)], deadline)
    setup.append(ready_s)
    wall = statistics.median(report["wall_s"])
    metrics = {
        "wall_s": _metric(wall, "s"),
        "path_steps_per_s": _metric(report["path_steps"] / wall, "1/s"),
        "peak_rss_mb": _metric(report["peak_rss_mb"], "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }
    print(f"iterations: {report['iterations']}, set-up samples: {len(setup)}")
    return metrics, [report], []


def traced(workload: str, seed: int, deadline: float):
    # one iteration each (--seconds 0), so the three runs fit the deadline
    _, base = _spawn(workload, seed, ["--seconds", "0"], deadline)
    runs = [_spawn(workload, seed, ["--seconds", "0", "--trace"], deadline)[1]
            for _ in range(2)]
    first = runs[0]
    problems = [f"span {name} recorded no call"
                for name in missing_spans(workload, first["trace"]["spans"])]
    calls = [{name: rec[0] for name, rec in run["trace"]["spans"].items()} for run in runs]
    problems += [f"{name}.calls differ between traced runs: {n} vs {calls[1].get(name)}"
                 for name, n in calls[0].items() if n != calls[1].get(name)]
    problems += [f"CSV bytes of {name} change with tracing on"
                 for run in runs for name, sha in base["sha256"].items()
                 if run["sha256"].get(name) != sha]
    overhead = statistics.median(first["wall_s"]) - statistics.median(base["wall_s"])
    metrics = per_layer_metrics(workload, first["trace"], first["iterations"],
                                first["passage_kept_frac"], first["sha_mismatch"], overhead)
    print(f"untraced wall_s {statistics.median(base['wall_s']):.4f} s, traced "
          f"{statistics.median(first['wall_s']):.4f} s, overhead {overhead:.4f} s; "
          f"pathgen.ensemble_mb {metrics['pathgen.ensemble_mb']['value']:.1f} MB "
          "(computed as n_paths * n_points * 8)")
    return metrics, [base, *runs], problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DOMINANT))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stickylab", "__init__.py")):
        print(f"perfbench: no stickylab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            deadline = time.monotonic() + MARGIN_S
            metrics, reports, problems = traced(args.workload, args.seed, deadline)
        else:
            deadline = time.monotonic() + args.seconds + MARGIN_S
            metrics, reports, problems = end_to_end(args.workload, args.seed,
                                                    args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print("environment:", json.dumps(_environment(reports[0])))
    print("no layer queues or retries work: no waiting time is recorded")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} experiments_failed/experiments_run {failed}/{attempted}")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
