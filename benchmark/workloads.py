"""The benchmark's workloads: four ratio studies, each run through the CLI.

Each workload stresses a different layer of a sweep; the reason for each is
its ``why`` in ``BENCHMARK.json``. Nothing here imports ``elimgame``, so
``run.py`` can refuse to run cleanly when the package sources are missing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial
from pathlib import Path

#: the program's own default ``--seed``; stdout and histogram bytes of every
#: workload are pinned for it under ``benchmark/expected/``
DEFAULT_SEED = 0
#: workers of every timed study (the ``nproc`` of the reference machine)
WORKERS = 2
HIST_BINS = 60
#: suffix naming a workload's self-test size, as in ``exh-cb-3x7-tiny``
TINY = "-tiny"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    m: int
    sequence: str
    mode: str
    #: None for an exhaustive sweep, else the ``--culture`` text
    culture: str | None = None
    samples: int = 0
    #: exact maximum the study must report, where it is known
    exact_max: Fraction | None = None
    #: layer predicted to hold the largest self time of the sweep
    dominant: str | None = None
    #: whether ``benchmark/expected/`` holds this workload's output bytes
    pinned: bool = True

    @property
    def exhaustive(self) -> bool:
        return self.culture is None

    @property
    def count(self) -> int:
        """Profiles the study evaluates (voter 1 pinned when exhaustive)."""
        return factorial(self.m) ** (self.n - 1) if self.exhaustive else self.samples

    def bounds_args(self) -> list[str]:
        return ["bounds", "--n", str(self.n), "--m", str(self.m),
                "--sequence", self.sequence]

    def study_args(self, seed: int, workers: int, hist_path: str) -> list[str]:
        """CLI arguments of one study; only Monte-Carlo studies take the seed."""
        args = [
            "exhaustive" if self.exhaustive else "montecarlo",
            "--n", str(self.n), "--m", str(self.m), "--sequence", self.sequence,
            "--mode", self.mode, "--workers", str(workers),
            "--bins", str(HIST_BINS), "--out", hist_path,
        ]
        if not self.exhaustive:
            args += ["--culture", self.culture, "--samples", str(self.samples),
                     "--seed", str(seed)]
        return args

    def pinned_for(self, seed: int) -> bool:
        """Whether pinned bytes apply: exhaustive output ignores the seed."""
        return self.pinned and (self.exhaustive or seed == DEFAULT_SEED)

    def tiny(self) -> "Workload":
        """The same code path at a size that runs in about a second."""
        tiny = replace(self, name=self.name + TINY, pinned=False)
        if self.exhaustive:
            return replace(tiny, n=3, m=4, sequence="1,2,3", exact_max=None)
        return replace(tiny, samples=3000)


BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
_SEQ_9X24 = ",".join(str(v) for v in [*range(1, 10), *range(1, 10), *range(1, 6)])

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "exh-cb-3x7", WHY["exh-cb-3x7"],
            n=3, m=7, sequence="1,2,3,1,2,3", mode="cb",
            exact_max=Fraction(2), dominant="play",
        ),
        Workload(
            "mc-ic-cb-5x10", WHY["mc-ic-cb-5x10"],
            n=5, m=10, sequence="1,1,2,3,2,1,3,4,5", mode="cb",
            culture="ic", samples=10**6,
        ),
        Workload(
            "mc-mallows-cb-5x10", WHY["mc-mallows-cb-5x10"],
            n=5, m=10, sequence="1,1,2,3,2,1,3,4,5", mode="cb",
            culture="mallows:phi=0.6", samples=10**6,
            dominant="cultures",
        ),
        Workload(
            "mc-ic-ab-9x24", WHY["mc-ic-ab-9x24"],
            n=9, m=24, sequence=_SEQ_9X24, mode="ab",
            culture="ic", samples=2 * 10**5,
        ),
    ]
}


def lookup(name: str) -> Workload:
    """A workload by name; ``<name>-tiny`` gives its self-test size."""
    if name in WORKLOADS:
        return WORKLOADS[name]
    if name.endswith(TINY) and name[: -len(TINY)] in WORKLOADS:
        return WORKLOADS[name[: -len(TINY)]].tiny()
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
