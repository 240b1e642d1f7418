"""Re-measure ROADMAP's Baseline table and write it to BASELINE.md.

    python3 perfbench/baseline.py

Rows that a span covers come from one traced process at the default seed
(span time read before and after each call). Rows about code the program
does not have (batched FFTs, a vectorized count) or that need a thread pool
(which the single-threaded tracer cannot attribute) are timed directly,
untraced, before the tracer is installed. A row is flagged when the
measurement falls outside ROADMAP's range widened by its stated ±20%.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 20240613

os.environ.update(STICKYLAB_THREADS="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1", NUMPY_MADVISE_HUGEPAGE="0")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from stickylab import cli, pathgen, stickiness, stopping  # noqa: E402


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _probes(grid) -> dict:
    """Untraced timings of code paths no span covers."""
    fbm = pathgen.FractionalBrownianMotion(0.75)

    def draws():
        for i in range(10_000):
            pathgen.SeedSpec(SEED, i).generator().standard_normal(2048)

    z = np.random.default_rng(SEED).standard_normal((10_000, 2048))
    full = z.astype(np.complex128)
    spectrum = z[:, :1025] + 1j * z[:, 1023:]
    return {
        "philox": _timed(draws)[0],
        "fft": _timed(lambda: np.fft.fft(full, axis=1))[0],
        "irfft": _timed(lambda: np.fft.irfft(spectrum, n=2048, axis=1))[0],
        "workers1": _timed(lambda: pathgen.sample_ensemble(fbm, grid, SEED, 4000, workers=1))[0],
        "workers2": _timed(lambda: pathgen.sample_ensemble(fbm, grid, SEED, 4000, workers=2))[0],
    }


def _delta(tracer: Tracer, fn, *spans: str):
    """Inclusive time each span gains while ``fn`` runs, and its result."""
    before = [tracer.spans.get(s, [0, 0.0, 0.0])[2] for s in spans]
    result = fn()
    after = [tracer.spans.get(s, [0, 0.0, 0.0])[2] for s in spans]
    return [a - b for a, b in zip(after, before)], result


def main() -> int:
    grid = pathgen.make_uniform_grid(1.0, 1024)
    probe = _probes(grid)
    tracer = Tracer()
    tracer.install()

    (sample, construct), ens = _delta(
        tracer,
        lambda: pathgen.sample_ensemble(pathgen.FractionalBrownianMotion(0.75), grid, SEED, 10_000),
        "pathgen.sample_ensemble", "pathgen.SeedSpec.generator")

    def query(tau):
        return stickiness.StickinessQuery(tau=stopping.parse_rule(tau), horizon=1.0, epsilon=0.5)

    (det0,), _ = _delta(tracer, lambda: stickiness.estimate_stickiness(ens, query("det:0")),
                        "stickiness.estimate_stickiness")
    (hit,), _ = _delta(tracer, lambda: stickiness.estimate_stickiness(ens, query("hit:0.1")),
                       "stickiness.estimate_stickiness")
    (cross,), _ = _delta(
        tracer, lambda: stickiness.cross_check_characterizations(ens, query("hit:0.1")),
        "stickiness.cross_check_characterizations")
    # no span inside: numpy only, as the vectorized count would be
    values = ens.values
    probe["det0_vector"] = _timed(
        lambda: int((np.abs(values - values[:, :1]).max(axis=1) < 0.5).sum()))[0]
    del ens, values

    portfolio = cli.ExperimentConfig(experiment="portfolio", process="fbm", hurst=0.75,
                                     master_seed=SEED)
    (run, sampled), _ = _delta(tracer, lambda: cli.run_experiment(portfolio),
                               "cli.run_experiment", "pathgen.sample_ensemble")
    presets = {}
    for name in ("costs-fbm-momentum", "passage-counterexample", "timechange-cap", "fbm-sticky"):
        config = dataclasses.replace(cli.PRESETS[name], master_seed=SEED)
        (presets[name],), _ = _delta(tracer, lambda: cli.run_experiment(config),
                                     "cli.run_experiment")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows = [
        ("`sample_ensemble` fBm H=0.75, 1e4 × 1024", "≈2.0–2.3 s", (2.0, 2.3),
         f"{sample:.2f} s", sample, "span"),
        ("…per-path Philox construct + 2048 normals", "≈0.7 s", (0.7, 0.7),
         f"{probe['philox']:.2f} s", probe["philox"], "probe"),
        ("…Philox construct alone", "≈0.15–0.2 s", (0.15, 0.2),
         f"{construct:.2f} s", construct, "span"),
        ("batched complex FFT 1e4 × 2048", "≈0.47–0.9 s", (0.47, 0.9),
         f"{probe['fft']:.2f} s", probe["fft"], "probe"),
        ("`irfft` on the half spectrum", "≈0.16 s", (0.16, 0.16),
         f"{probe['irfft']:.2f} s", probe["irfft"], "probe"),
        ("fBm `sample_ensemble`, 4,000 paths, `workers=1`", "1.15 s", (1.15, 1.15),
         f"{probe['workers1']:.2f} s", probe["workers1"], "probe"),
        ("fBm `sample_ensemble`, 4,000 paths, `workers=2`", "2.32 s", (2.32, 2.32),
         f"{probe['workers2']:.2f} s", probe["workers2"], "probe"),
        ("`estimate_stickiness` det:0, 1e4 paths", "≈0.15–0.29 s", (0.15, 0.29),
         f"{det0:.2f} s", det0, "span"),
        ("`estimate_stickiness` hit:0.1, 1e4 paths", "≈0.23–0.35 s", (0.23, 0.35),
         f"{hit:.2f} s", hit, "span"),
        ("vectorized det:0 count, same ensemble", "≈0.06 s", (0.06, 0.06),
         f"{probe['det0_vector']:.3f} s", probe["det0_vector"], "probe"),
        ("`cross_check_characterizations`", "≈0.55 s", (0.55, 0.55),
         f"{cross:.2f} s", cross, "span"),
        ("per-path portfolio loop (price, momentum, ledger), 1e4", "≈1.8–2.2 s", (1.8, 2.2),
         f"{run - sampled:.2f} s", run - sampled, "span: `run_experiment` − `sample_ensemble`"),
    ]
    roadmap_presets = {"costs-fbm-momentum": 11.4, "passage-counterexample": 9.4,
                       "timechange-cap": 3.5, "fbm-sticky": 3.2}
    for name, figure in roadmap_presets.items():
        rows.append((f"preset `{name}` end to end", f"{figure} s", (figure, figure),
                     f"{presets[name]:.2f} s", presets[name], "span: `run_experiment`"))
    rows.append(("peak RSS, one process running the four presets above", "1.43 GB",
                 (1432.0, 1432.0), f"{peak_mb:.0f} MB", peak_mb, "`ru_maxrss`"))

    lines = [
        "# ROADMAP Baseline, re-measured",
        "",
        f"Written by `python3 perfbench/baseline.py`: seed {SEED}, {os.cpu_count()} cores, "
        f"Python {platform.python_version()}, numpy {np.__version__}, one thread. "
        "\"span\" rows come from one traced process (tracing adds a little time); "
        "\"probe\" rows time code no span covers, untraced.",
        "A row is flagged when it falls outside ROADMAP's range widened by ±20%.",
        "",
        "| what | ROADMAP | measured | source | flag |",
        "|---|---|---|---|---|",
    ]
    for what, figure, (low, high), shown, value, source in rows:
        flag = "" if 0.8 * low <= value <= 1.2 * high else "**off by more than 20%**"
        lines.append(f"| {what} | {figure} | {shown} | {source} | {flag} |")
    with open(os.path.join(HERE, "BASELINE.md"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
