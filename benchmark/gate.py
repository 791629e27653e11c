"""Correctness gate every benchmarked study must pass.

The checks that hold for any seed: the summary has the expected shape and
population count, the maximum lies under the closed-form bound and the
minimum over its reciprocal, the histogram rows sum to the count, and the
reported maximum equals the scalar ratio of the reported witness. Where the
workload pins them, the exact maximum and the exact output bytes must match
too. Each function returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path

from elimgame.core import EliminationSequence, parse_profile
from elimgame.errors import ElimGameError
from elimgame.experiments import CSV_HEADER, HIST_HEADER
from elimgame.welfare import (
    poa_for_sequence,
    ratio_ab,
    ratio_cb,
    sr_bound_for_sequence,
)

from workloads import Workload

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def _frac(d: dict) -> Fraction:
    return Fraction(d["num"], d["den"])


def closed_form_bound(wl: Workload) -> Fraction:
    seq = EliminationSequence.parse(wl.sequence)
    bound = poa_for_sequence if wl.mode == "ab" else sr_bound_for_sequence
    return bound(seq, wl.n, wl.m)


def expected_bytes(wl: Workload) -> tuple[bytes, bytes]:
    """Pinned (stdout, histogram CSV) bytes of ``wl`` at the default seed."""
    return (
        (EXPECTED_DIR / f"{wl.name}.stdout").read_bytes(),
        (EXPECTED_DIR / f"{wl.name}.hist.csv").read_bytes(),
    )


def check_bounds(wl: Workload, stdout: bytes) -> list[str]:
    """The ``bounds`` command must print the library's closed forms."""
    try:
        payload = json.loads(stdout)
        sr = _frac(payload["sr_upper_bound"])
        poa = _frac(payload["poa"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"bounds output unreadable: {exc!r}"]
    seq = EliminationSequence.parse(wl.sequence)
    problems = []
    if poa != poa_for_sequence(seq, wl.n, wl.m):
        problems.append(f"bounds poa {poa} differs from the closed form")
    if sr != sr_bound_for_sequence(seq, wl.n, wl.m):
        problems.append(f"bounds sr_upper_bound {sr} differs from the closed form")
    return problems


def _check_hist(hist: bytes, count: int, spike: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(hist.decode())))
    if not rows or ",".join(rows[0]) != HIST_HEADER:
        return ["histogram CSV lacks its header"]
    total = spike_rows = 0
    for left, right, n in rows[1:]:
        total += int(n)
        if left == right == "1.0":
            spike_rows += 1
            if int(n) != spike:
                return [f"spike row holds {n}, summary says {spike}"]
    problems = []
    if spike_rows != 1:
        problems.append(f"histogram has {spike_rows} spike rows, want 1")
    if total != count:
        problems.append(f"histogram rows sum to {total}, want {count}")
    return problems


def check_study(
    wl: Workload, stdout: bytes, hist: bytes, expected: tuple[bytes, bytes] | None
) -> list[str]:
    """Problems with one study's stdout and histogram CSV (``[]`` = pass).

    ``expected`` holds the pinned bytes to compare against, or None where
    no bytes are pinned for the run's seed.
    """
    lines = stdout.decode(errors="replace").split("\n")
    if len(lines) != 4 or lines[0] != CSV_HEADER or lines[3] != "":
        return ["stdout is not a CSV header, a CSV row and a JSON line"]
    try:
        summary = json.loads(lines[2])
        count = summary["count"]
        mx, mn, bound = (_frac(summary[k]) for k in ("max", "min", "bound"))
        witness_text = "\n".join(summary["max_witness"])
        spike = summary["spike_count"]
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"summary JSON unreadable: {exc!r}"]
    problems = []
    if count != wl.count:
        problems.append(f"count {count}, want {wl.count}")
    row = next(csv.reader([lines[1]]))
    if len(row) != 11 or row[6] != str(count) or Fraction(int(row[9]), int(row[10])) != mx:
        problems.append("CSV row disagrees with the JSON summary")
    closed = closed_form_bound(wl)
    if bound != closed:
        problems.append(f"reported bound {bound}, closed form {closed}")
    if mx > closed:
        problems.append(f"max {mx} above the bound {closed}")
    if mn < 1 / closed:
        problems.append(f"min {mn} below the reciprocal bound {1 / closed}")
    if wl.exact_max is not None and mx != wl.exact_max:
        problems.append(f"max {mx}, want exactly {wl.exact_max}")
    seq = EliminationSequence.parse(wl.sequence)
    rescore = ratio_ab if wl.mode == "ab" else ratio_cb
    try:
        witness_ratio = rescore(parse_profile(witness_text), seq)
    except (ElimGameError, ValueError) as exc:
        problems.append(f"witness cannot be re-scored: {exc!r}")
    else:
        if witness_ratio != mx:
            problems.append(f"witness ratio {witness_ratio} != reported max {mx}")
    problems += _check_hist(hist, count, spike)
    if expected is not None:
        if stdout != expected[0]:
            problems.append("stdout bytes differ from the pinned output")
        if hist != expected[1]:
            problems.append("histogram bytes differ from the pinned output")
    return problems
