"""Benchmark workloads: the CLI invocations each one makes and the checks
that decide whether its outputs are correct.

A workload is a list of invocations of ``llfisher.cli.main``.  Every
invocation has a key that names its output files, so the checks find the
outputs whatever order the seed put the invocations in.  An *operation* is
one unit the checks judge: one sweep row, one ``lmax`` search, one imaging
row or one MLE result.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Relative tolerances of the reference checks, each the bound a Tier-1
# oracle already certifies: the analytic QFI agrees with the fidelity-overlap
# oracle to 1e-3 (test_criterion_05), and the CFI quadrature agrees with the
# analytic CFI to 1e-4 (test_criterion_06).  An exact kernel that replaces a
# quadrature or recursion stays inside them; a wrong formula does not.
QFI_RTOL = 1e-3
CFI_QUADRATURE_RTOL = 1e-4

# Criterion-3 optimal sizes of the box N = 3 excited states, +-0.5.
LMAX_TARGETS = {"124": 66.00, "134": 67.95, "234": 62.00}
LMAX_TOL = 0.5

MLE_SIGMAS = 5.0
SHOTS = 1000
C_TRUE = 0.2


@dataclass(frozen=True)
class Invocation:
    key: str
    argv: tuple  # CLI arguments without the output paths
    ops: int  # operations the checks expect from this invocation

    def full_argv(self, outdir: Path) -> list:
        """The argv with every output path inside ``outdir``."""
        argv = list(self.argv) + ["-o", str(outdir / self.output_name)]
        if "--sample" in self.argv:
            argv += [
                "--shots-out",
                str(outdir / f"{self.key}.shots.ndjson"),
                "--mle-out",
                str(outdir / f"{self.key}.mle.json"),
            ]
        return argv

    @property
    def output_name(self) -> str:
        suffix = ".json" if self.argv[0] == "lmax" else ".csv"
        return self.key + suffix


def _state(bc: str, n: int, qn=None) -> list:
    base = ["--bc", bc, "-N", str(n)]
    return base + (["--ground"] if qn is None else ["-I", *qn])


_SWEEP = ["fisher", "--axis", "L", "--start", "6", "--stop", "18", "--num", "4", "--fixed", "0.2"]
_SWEEP_STATES = {
    "ring2": _state("periodic", 2),
    "ring3": _state("periodic", 3),
    "ring4": _state("periodic", 4),
    "box2": _state("hardwall", 2),
    "box3": _state("hardwall", 3),
    "ring3-general": _state("periodic", 3, ["-1", "1", "2"]),
    "ring4-general": _state("periodic", 4, ["-1.5", "-0.5", "0.5", "2.5"]),
}
_RING5 = ["fisher", "--axis", "L", "--start", "10", "--stop", "10", "--num", "1", "--fixed", "0.2"]


def _fisher_sweep(seed: int) -> list:
    invs = [Invocation(k, tuple(_SWEEP + s), 4) for k, s in _SWEEP_STATES.items()]
    invs.append(Invocation("ring5", tuple(_RING5 + _state("periodic", 5)), 1))
    return invs


def _lmax_box3(seed: int) -> list:
    return [
        Invocation(
            f"lmax-{qn}",
            tuple(
                ["lmax", *_state("hardwall", 3, list(qn))]
                + ["-c", "0.2", "--bracket", "45", "90", "--tol", "0.05"]
            ),
            1,
        )
        for qn in LMAX_TARGETS
    ]


def _imaging_mle(seed: int) -> list:
    common = ["-c", str(C_TRUE), "-L", "10"]
    return [
        Invocation(
            "img-ring2",
            tuple(
                ["imaging", *_state("periodic", 2), *common, "--pixels", "4", "8", "16"]
                + ["--sample", str(SHOTS), "--seed", str(seed)]
            ),
            4,  # three pixel rows and the MLE result
        ),
        Invocation("img-box3", tuple(["imaging", *_state("hardwall", 3), *common, "--pixels", "8"]), 1),
    ]


_WORKLOAD_INVOCATIONS = {
    "fisher-sweep": _fisher_sweep,
    "lmax-box3": _lmax_box3,
    "imaging-mle": _imaging_mle,
}
WORKLOADS = tuple(_WORKLOAD_INVOCATIONS)

# A small call through each workload's command, run before timing starts so
# lazy imports and first-call costs land in set-up, not in the first pass.
WARMUP = {
    "fisher-sweep": ["fisher", *_state("periodic", 3, ["-1", "1", "2"]), "--axis", "L",
                     "--start", "6", "--stop", "6", "--num", "1", "--fixed", "0.2"],
    "lmax-box3": ["lmax", *_state("hardwall", 2), "-c", "1", "--bracket", "5", "20",
                  "--tol", "0.5"],
    "imaging-mle": ["imaging", *_state("periodic", 2), "-c", "0.2", "-L", "10", "--pixels", "2"],
}


def invocations(workload: str, seed: int) -> list:
    """The workload's invocations in the order the seed gives them.

    States, grids and brackets are fixed, because the checks compare them
    against recorded references; the seed sets the invocation order and,
    for imaging-mle, the shot RNG.
    """
    invs = _WORKLOAD_INVOCATIONS[workload](seed)
    random.Random(seed).shuffle(invs)
    return invs


def warmup_argv(workload: str, outdir: Path) -> list:
    return WARMUP[workload] + ["-o", str(outdir / "warmup.out")]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def read_rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _check_sweep(inv: Invocation, path: Path, ref: dict) -> list:
    rows = read_rows(path)
    want = ref["fisher"][inv.key]
    problems = []
    if len(rows) != len(want):
        problems.append(f"{inv.key}: {len(rows)} rows, expected {len(want)}")
    for row, (value, qfi, cfi) in zip(rows, want):
        where = f"{inv.key} L={row['value']}"
        if row["status"] != "ok":
            problems.append(f"{where}: status {row['status']}")
            continue
        cfi_tol = CFI_QUADRATURE_RTOL if row["cfi_route"] == "quadrature" else QFI_RTOL
        if float(row["value"]) != value:
            problems.append(f"{where}: grid value, expected {value}")
        elif _rel(float(row["qfi"]), qfi) > QFI_RTOL:
            problems.append(f"{where}: qfi {row['qfi']} vs reference {qfi!r}")
        elif _rel(float(row["cfi"]), cfi) > cfi_tol:
            problems.append(f"{where}: cfi {row['cfi']} vs reference {cfi!r}")
    return problems


def _check_lmax(inv: Invocation, path: Path, ref: dict) -> list:
    with open(path, encoding="utf-8") as fh:
        l_max = json.load(fh)["L_max"]
    target = LMAX_TARGETS[inv.key.split("-")[1]]
    if abs(l_max - target) > LMAX_TOL:
        return [f"{inv.key}: L_max {l_max} not within {LMAX_TOL} of {target}"]
    return []


def _check_imaging(inv: Invocation, path: Path, ref: dict) -> list:
    rows = read_rows(path)
    problems = []
    previous = 0.0
    for row in rows:
        where = f"{inv.key} {row['n_pixels']} px"
        ratio = float(row["ratio"])
        if not previous < ratio <= 1.0:
            problems.append(f"{where}: ratio {ratio} not in ({previous}, 1]")
        elif _rel(float(row["cfi"]), ref["imaging_cfi"][inv.key]) > QFI_RTOL:
            problems.append(f"{where}: cfi {row['cfi']} vs reference")
        previous = ratio
    sampled = "--sample" in inv.argv
    if len(rows) != (inv.ops - 1 if sampled else inv.ops):
        problems.append(f"{inv.key}: {len(rows)} pixel rows")
    if sampled:
        problems += _check_mle(inv, path.parent, float(rows[-1]["imaging_cfi"]))
    return problems


def _check_mle(inv: Invocation, outdir: Path, f_img: float) -> list:
    with open(outdir / f"{inv.key}.mle.json", encoding="utf-8") as fh:
        mle = json.load(fh)
    c_hat, grid = mle["c_hat"], mle["c_grid"]
    sigma = 1.0 / math.sqrt(mle["shots"] * f_img)
    if not grid[0] < c_hat < grid[-1]:
        return [f"{inv.key}: c_hat {c_hat} not strictly inside its c grid"]
    if abs(c_hat - C_TRUE) > MLE_SIGMAS * sigma:
        return [f"{inv.key}: c_hat {c_hat} more than {MLE_SIGMAS} sigma_CRB from {C_TRUE}"]
    return []


_CHECKS = {"fisher": _check_sweep, "lmax": _check_lmax, "imaging": _check_imaging}


def check_outputs(inv: Invocation, outdir: Path, ref: dict) -> tuple:
    """(failed operations, problems) of one successful invocation's outputs.

    Each problem fails one operation; an unreadable output fails them all.
    """
    try:
        problems = _CHECKS[inv.argv[0]](inv, outdir / inv.output_name, ref)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return inv.ops, [f"{inv.key}: unreadable output ({type(exc).__name__}: {exc})"]
    return min(len(problems), inv.ops), problems
