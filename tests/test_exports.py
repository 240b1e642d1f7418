import ast
import importlib
import os
import subprocess
import sys

import pytest

import stickylab

MODULES = ("stickylab", "stickylab.pathgen", "stickylab.transforms", "stickylab.stopping",
           "stickylab.stickiness", "stickylab.market", "stickylab.cli")


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    # tools that wrap every exported function look each name up with getattr,
    # so a name left behind by a deletion would break them
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__))
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


_PROBE = """
import contextlib, io, sys
import stickylab, stickylab.cli
codes = []
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(stickylab.cli.main(argv))
        except SystemExit as exc:  # --help
            codes.append(exc.code)
{library}
print(codes, sorted(m for m in ("scipy", "scipy.special", "scipy.stats") if m in sys.modules))
"""

_SIS = """
from stickylab import (FractionalBrownianMotion, StickinessQuery, estimate_stickiness_sis,
                       make_uniform_grid)
from stickylab.stopping import parse_rule
query = StickinessQuery(tau=parse_rule("det:0"), horizon=1.0, epsilon=0.5)
estimate_stickiness_sis(FractionalBrownianMotion(0.75), make_uniform_grid(1.0, 16), query, 1, 8)
"""


@pytest.mark.parametrize("runs, library, codes, loaded", [
    ((), "", [], []),
    ((["experiment", "costs-fbm-momentum", "--paths", "8", "--steps", "64"], ["--help"],
      ["stickiness", "--epsilon", "-1"]), "", [0, 0, 2], []),
    ((["stickiness", "--paths", "8", "--steps", "16"],
      ["ladder", "--paths", "8", "--steps", "16"],
      ["experiment", "fbm-sticky", "--paths", "8", "--steps", "16"],
      ["experiment", "timechange-cap", "--paths", "8", "--steps", "16"],
      ["experiment", "passage-counterexample", "--paths", "8", "--steps", "1024"]),
     "", [0, 0, 0, 0, 0], []),
    ((), _SIS, [], ["scipy", "scipy.special"]),
], ids=["import", "no-count", "counts", "importance-sampling"])
def test_only_importance_sampling_loads_scipy(tmp_path, runs, library, codes, loaded):
    # scipy.stats would take most of a start-up and scipy.special about 0.3 s; the
    # Wilson interval's quantile is stickiness._ndtri, so counting loads neither
    probe = _PROBE.format(runs=[list(argv) for argv in runs], library=library)
    src = os.path.dirname(os.path.dirname(stickylab.__file__))  # the package under test
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{codes} {loaded}\n"


@pytest.mark.parametrize("module_file", sorted(
    name for name in os.listdir(os.path.dirname(stickylab.__file__))
    if name.endswith(".py") and name != "__init__.py"))
def test_no_module_imports_a_name_it_never_uses(module_file):
    # a deletion can leave its imports behind; only __init__ imports names to re-export
    with open(os.path.join(os.path.dirname(stickylab.__file__), module_file)) as fh:
        tree = ast.parse(fh.read())
    imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__")
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_cli_counts_only_through_the_public_estimators():
    # the streamed runs count through estimate_stickiness, survival_ladder and
    # the cross-check; cli keeps only the two checks that refuse a bad config
    # before any path is sampled
    import stickylab.cli

    with open(stickylab.cli.__file__) as fh:
        tree = ast.parse(fh.read())
    private = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "stickiness"
               for alias in node.names if alias.name.startswith("_")}
    assert private == {"_check_ladder", "_check_window_end"}


def test_stickiness_query_holds_one_tube():
    # every characterization counts the query's own (tau, T, epsilon); a ladder
    # of horizons is survival_ladder's
    import dataclasses

    from stickylab import StickinessQuery

    assert tuple(f.name for f in dataclasses.fields(StickinessQuery)) == (
        "tau", "horizon", "epsilon", "event", "characterization", "confidence")


def test_paths_and_results_hold_no_label_or_copied_input():
    # a path is its grid and values; an estimate's confidence is its query's, and
    # terminal_stats' tolerance is its tol argument; Ensemble.process_label is a
    # caller's tag that the library neither sets nor reads
    import dataclasses

    from stickylab.market import ArbitrageStats
    from stickylab.pathgen import Path
    from stickylab.stickiness import SISEstimate, StickinessEstimate
    from stickylab.transforms import AbsCubeRootOfMartingale, CosDriftExample, NonStickyMartingale

    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(Path) == ("grid", "values")
    assert names(StickinessEstimate) == (
        "p_hat", "successes", "n", "ci_low", "ci_high", "verdict", "zero_upper", "query")
    assert names(SISEstimate) == ("log10_p_hat", "log10_lower", "ess", "n", "query")
    assert names(ArbitrageStats) == ("n", "frac_nonnegative", "frac_strictly_positive",
                                     "mean_terminal", "std_terminal", "min_terminal", "flag")
    for spec in (NonStickyMartingale, AbsCubeRootOfMartingale, CosDriftExample):
        assert not hasattr(spec, "label") and not hasattr(spec(), "label"), spec
