"""Package imports flow one way, from the command line down to the errors.

Each module may import only modules on a strictly lower layer. The package
``__init__`` and ``__main__`` sit outside the order: they re-export and
start the command line. The reference engine, the closed forms and the
trajectory counts import only the standard library. The numpy modules,
``cultures`` and ``sweep``, load only when chunks must run: the study layer
``experiments`` imports without them, and a CB exhaustive study loads
neither numpy nor a process pool; no study loads a process pool, because
a parallel sweep forks its own workers. The last check keeps every test in
``tests/`` collectable: a second definition of a name silently replaces the
first.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import elimgame

LAYERS = [
    {"errors"},
    {"core"},
    {"play"},
    {"welfare"},
    {"cultures", "extremal", "trajectories"},
    {"sweep"},
    {"experiments"},
    {"cli"},
]
LAYER_OF = {name: i for i, layer in enumerate(LAYERS) for name in layer}
PACKAGE = Path(elimgame.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
EXEMPT = {"__init__", "__main__"}
#: the modules that import numpy; nothing else may load them at import time
STUDY_MODULES = {"cultures", "sweep"}
STANDARD = set(sys.stdlib_module_names) | {"elimgame"}


def parse(module: str) -> ast.Module:
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(), str(path))


def relative_imports(nodes) -> set[str]:
    """Sibling modules named by the relative imports among ``nodes``."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def absolute_imports(nodes) -> set[str]:
    """Top-level packages named by the absolute imports among ``nodes``."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - EXEMPT
    assert modules == set(LAYER_OF)


@pytest.mark.parametrize("module", sorted(LAYER_OF))
def test_imports_point_to_lower_layers(module):
    upward = {
        target for target in relative_imports(ast.walk(parse(module)))
        if LAYER_OF[target] >= LAYER_OF[module]
    }
    assert not upward, f"{module} imports {sorted(upward)} from its own or a higher layer"


@pytest.mark.parametrize("module", ["errors", "core", "play", "welfare", "extremal",
                                    "trajectories"])
def test_reference_modules_import_only_the_standard_library(module):
    outside = absolute_imports(ast.walk(parse(module))) - STANDARD
    assert not outside, f"{module} imports {sorted(outside)}"


@pytest.mark.parametrize("module", ["cli", "__init__", "experiments"])
def test_entry_points_import_no_study_module_at_module_level(module):
    # experiments imports sweep, and through it cultures, only in the
    # functions that run chunks
    body = parse(module).body
    found = (relative_imports(body) & STUDY_MODULES) | (absolute_imports(body) - STANDARD)
    assert not found, f"{module} imports {sorted(found)} at module level"


def test_reference_commands_load_no_numpy(tmp_path):
    profile = tmp_path / "profile.txt"
    profile.write_text("a b c d e\ne d c b a\nd e b c a\n")
    game = ["--sequence", "1,2,3,1"]
    runs = [["bounds", "--n", "3", "--m", "5", *game],
            ["extremal", "--n", "3", "--m", "5", "--oracle", *game]]
    runs += [["solve", "--profile", str(profile), *game, "--behavior", behavior]
             for behavior in ("sincere", "strategic", "oracle")]
    runs.append(["solve", "--profile", str(profile), *game,
                 "--behavior", "mixed", "--sincere-set", "1"])
    assert modules_left_loaded(runs, {"numpy", "concurrent.futures.process"}) == []


def test_cb_exhaustive_studies_load_no_numpy():
    # the trajectory table, the witness search, the finish and the histogram
    # are pure Python: fix-first or not, serial or not, and a maximum of 1,
    # whose witness is index 0 with no search
    game = ["--n", "3", "--m", "5", "--sequence", "1,2,3,1", "--mode", "cb"]
    runs = [["exhaustive", *game], ["exhaustive", *game, "--no-fix-first"],
            ["exhaustive", *game, "--workers", "2"],
            ["exhaustive", "--n", "3", "--m", "7", "--sequence", "3,3,3,3,3,3",
             "--mode", "cb", "--workers", "2"]]
    heavy = {"numpy", "concurrent.futures.process", "elimgame.cultures", "elimgame.sweep"}
    assert modules_left_loaded(runs, heavy) == []


def test_long_cb_witness_searches_load_no_numpy():
    # two of the longest witness searches at their sizes, with two
    # workers allowed: the search runs to the end alone and no chunk runs
    runs = [["exhaustive", "--n", "2", "--m", "9", "--sequence", "1,1,1,1,2,2,2,2"],
            ["exhaustive", "--n", "3", "--m", "7", "--sequence", "3,3,3,3,3,2"]]
    runs = [[*argv, "--mode", "cb", "--workers", "2"] for argv in runs]
    heavy = {"numpy", "concurrent.futures.process", "elimgame.cultures", "elimgame.sweep"}
    assert modules_left_loaded(runs, heavy) == []


def test_chunked_studies_still_run():
    # AB exhaustive and Monte-Carlo studies load the numpy chunk engine
    game = ["--n", "3", "--m", "5", "--sequence", "1,2,3,1"]
    runs = [["exhaustive", *game, "--mode", "ab", "--workers", "2"],
            ["montecarlo", *game, "--mode", "cb", "--samples", "300", "--workers", "2"]]
    assert modules_left_loaded(runs, {"numpy", "elimgame.sweep"}) == ["elimgame.sweep", "numpy"]


def test_culture_specs_load_no_numpy():
    # a culture spec is a plain value in core: parsing one and configuring a
    # Monte-Carlo study import neither numpy nor the sampler
    script = (
        "import sys\n"
        "import elimgame\n"
        "culture = elimgame.CultureSpec.parse('mallows:phi=0.6')\n"
        "elimgame.ExperimentConfig(n=3, m=5, sequence=elimgame.EliminationSequence.parse("
        "'1,2,3,1'), mode=elimgame.RatioMode.CB, culture=culture, samples=10)\n"
        "print(sorted({'numpy', 'elimgame.cultures'} & set(sys.modules)))\n"
    )
    assert run_fresh(script) == "[]\n"


def test_serial_studies_load_no_process_pool():
    # and neither do parallel ones: a sweep forks its own workers. 30,000
    # samples of 3 voters and the 14,400 pinned (3, 5) profiles are two
    # chunks each, so on two or more CPUs the last two studies fork two
    game = ["--n", "3", "--m", "5", "--sequence", "1,2,3,1"]
    runs = [["exhaustive", *game, "--mode", "cb", "--workers", "1"],
            ["montecarlo", *game, "--mode", "ab", "--culture", "mallows:phi=0.6",
             "--samples", "500", "--seed", "1", "--workers", "1"],
            ["montecarlo", *game, "--mode", "cb", "--samples", "30000", "--workers", "2"],
            ["exhaustive", *game, "--mode", "ab", "--workers", "2"]]
    heavy = {"concurrent.futures.process", "multiprocessing"}
    assert modules_left_loaded(runs, heavy) == []


def modules_left_loaded(runs, heavy) -> list[str]:
    """The ``heavy`` modules in ``sys.modules`` after a fresh interpreter
    runs ``cli.main`` on each of ``runs``, every one of which must exit 0."""
    script = (
        "import contextlib, io, json, sys\n"
        "from elimgame.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "heavy = set(json.loads(sys.argv[2]))\n"
        "print(json.dumps([codes, sorted(heavy & set(sys.modules))]))\n"
    )
    out = run_fresh(script, json.dumps(runs), json.dumps(sorted(heavy)))
    codes, loaded = json.loads(out.splitlines()[-1])
    assert codes == [0] * len(runs)
    return loaded


def run_fresh(script: str, *args: str) -> str:
    """The stdout of a fresh interpreter that runs ``script`` with ``args``
    and this package on its path, and must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_study_names_resolve_on_first_use():
    from elimgame import core, cultures, experiments, sweep, welfare

    for module, names in [(core, ["CultureSpec"]), (cultures, ["sample_rankings_batch"]),
                          (experiments, ["ExperimentConfig", "run_experiment"]),
                          (welfare, ["RatioMode"]), (sweep, ["RatioMode"])]:
        for name in names:
            assert getattr(elimgame, name) is getattr(module, name)
    star = {}
    exec("from elimgame import *", star)
    assert set(elimgame.__all__) <= star.keys()
    with pytest.raises(AttributeError):
        elimgame.no_such_name


def test_no_test_name_is_defined_twice_in_one_scope():
    twice = []
    for path in sorted(TESTS.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
            names = Counter(
                node.name for node in scope.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("test_")
            )
            where = f"{path.name}::{getattr(scope, 'name', '<module>')}"
            twice += [f"{where}::{name}" for name, k in names.items() if k > 1]
    assert not twice, f"defined twice: {twice}"
