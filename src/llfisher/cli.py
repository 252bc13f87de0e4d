"""Command-line surface: solve states, sweep Fisher information, find the
optimal system size, and tabulate the absorption-imaging CFI.

Single records are emitted as JSON, sweeps as CSV with a fixed column
order and floats at 17 significant digits, so identical configurations
produce byte-identical files (the CFI quadrature sums in a fixed order, so
its values do not move with the BLAS thread count).  Every CSV row
and JSON record carries the package version and a configuration hash: the
hash of every parsed argument except the output paths and the sampling
draw (``--sample`` and ``--seed``, which the shot file and the MLE record
list beside it), together with the numeric settings.

Exit codes: 0 success, 2 invalid arguments, an output file that cannot
be written, an ``lmax`` of one particle (its CFI is 0 at every L), or a
``--sample`` whose likelihood carries no information on c (N = 1, one
pixel, or an imaging CFI of 0), 3 solver failure, 4 bracket
without an interior maximum, 5 size cap exceeded or an array too large to
allocate (MemoryError), 6 failed numerical health check.  A ``fisher``
sweep whose every point failed exits 3 whatever the errors were; each of
its rows names the exception class.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import warnings
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bethe import (
    BoundaryCondition,
    ModelParams,
    SolverError,
    StateSpec,
    ground_state,
    solve_bethe,
    type1_excitation,
    type2_excitation,
)
from .fisher import BracketError, cfi, lmax, sweep
from .imaging import (
    _shots_text,
    image_distribution,
    imaging_cfi,
    mle_estimate,
    sample_images,
    uniform_grid,
)
from .integrals import NumericalHealthError, ResourceLimitError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_BRACKET = 4
EXIT_RESOURCE = 5
EXIT_NUMERICS = 6


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# Parsed arguments that are not configuration: the handler and subcommand
# name (no two subcommands share an argument set), the output paths, and the
# sampling draw, which the shot file and the MLE JSON record beside the hash.
_NOT_CONFIG = ("func", "command", "output", "shots_out", "mle_out", "sample", "seed")


def _config_hash(args: argparse.Namespace) -> str:
    # numeric settings are part of the provenance: a change in the solver
    # tolerance or its root test, the QFI error bound, the CFI rule pairs
    # and their refinement, or the slice on which the ring QFI and CFI are
    # integrated (N - 1 dimensions at x_1 = 0) changes every row's hash
    from .bethe import RESIDUAL_RTOL, ROOT_GAP_RTOL
    from .fisher import (
        CFI_ERROR_RTOL,
        CFI_MAX_NODES,
        CFI_RULE_PAIR,
        CFI_RULE_PAIR_4D,
        QFI_ERROR_RTOL,
    )

    full = {
        **{k: v for k, v in vars(args).items() if k not in _NOT_CONFIG},
        "residual_rtol": RESIDUAL_RTOL,
        "root_gap_rtol": ROOT_GAP_RTOL,
        "qfi_error_rtol": QFI_ERROR_RTOL,
        "cfi_rule_pairs": {"up_to_3d": list(CFI_RULE_PAIR), "4d": list(CFI_RULE_PAIR_4D)},
        "cfi_refinement": {"rtol": CFI_ERROR_RTOL, "max_nodes": CFI_MAX_NODES},
        "ring_cfi_rule": "x_1 = 0, N - 1 dims",
        "ring_qfi_rule": "x_1 = 0, N - 1 dims",
    }
    canon = json.dumps(full, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _build_state(args: argparse.Namespace) -> StateSpec:
    bc = BoundaryCondition(args.bc)
    selectors = [
        args.ground,
        args.type1 is not None,
        args.type2 is not None,
        args.quantum_numbers is not None,
    ]
    if sum(bool(s) for s in selectors) != 1:
        raise ValueError("select exactly one of --ground, --type1 Q, --type2 Q, -I ...")
    if args.ground:
        return ground_state(bc, args.n)
    if args.type1 is not None:
        return type1_excitation(bc, args.n, args.type1)
    if args.type2 is not None:
        return type2_excitation(bc, args.n, args.type2)
    return StateSpec(bc, args.n, tuple(args.quantum_numbers))


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_writable(paths: Sequence[Optional[str]]) -> None:
    """Raise the OSError of the first file path that cannot be opened for writing.

    Each path is opened for appending, which truncates nothing; a file
    that this creates is removed again.  None and "-" stand for stdout.
    """
    for path in paths:
        if path is None or path == "-":
            continue
        existed = os.path.exists(path)
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)


def _add_state_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bc", choices=[b.value for b in BoundaryCondition], required=True)
    parser.add_argument("-N", "--n", type=int, required=True, help="particle count")
    parser.add_argument("--ground", action="store_true", help="ground state")
    parser.add_argument("--type1", type=int, metavar="Q", help="type-I excitation label")
    parser.add_argument("--type2", type=int, metavar="Q", help="type-II excitation label")
    parser.add_argument(
        "-I",
        "--quantum-numbers",
        type=float,
        nargs="+",
        metavar="I_J",
        help="explicit quantum numbers",
    )
    parser.add_argument("-o", "--output", help="output path (default stdout)")


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = _build_state(args)
    params = ModelParams(args.c, args.L)
    solution = solve_bethe(spec, params)
    payload = {
        "config_hash": _config_hash(args),
        "version": __version__,
        "bc": args.bc,
        "n": spec.n,
        "quantum_numbers": list(spec.quantum_numbers),
        "c": args.c,
        "L": args.L,
        "k": list(solution.k),
        "dk_dc": list(solution.dk_dc),
        "energy": solution.energy,
        "momentum": solution.momentum,
        "residual": solution.residual,
        "norm_sq": solution.norm_sq,
    }
    _write_text(args.output, json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_fisher(args: argparse.Namespace) -> int:
    spec = _build_state(args)
    if args.num < 1:
        raise ValueError("grid needs at least one point")
    if not all(math.isfinite(v) and (v > 0 or not args.log) for v in (args.start, args.stop)):
        raise ValueError("--start and --stop must be finite, and > 0 with --log")
    if args.log:
        grid = np.geomspace(args.start, args.stop, args.num)
    else:
        grid = np.linspace(args.start, args.stop, args.num)
    result = sweep(spec, args.axis, grid, args.fixed)

    chash = _config_hash(args)
    lines = [f"# llfisher fisher sweep, trend({args.axis}): {result.trend()}"]
    lines.append("axis,value,qfi,cfi,gap,phase_class,cfi_route,status,config_hash,version")
    n_ok = 0
    for idx, value in enumerate(result.grid):
        report = result.reports[idx]
        if report is None:
            lines.append(
                f"{args.axis},{_fmt(value)},nan,nan,nan,,,"
                f"error:{result.errors[idx]},{chash},{__version__}"
            )
            continue
        n_ok += 1
        numbers = (value, report.qfi, report.cfi, report.phase_variance_term)
        route = (report.method["phase_class"], report.method["cfi_route"])
        lines.append(",".join([args.axis, *map(_fmt, numbers), *route, "ok", chash, __version__]))
    _write_text(args.output, "\n".join(lines) + "\n")
    if n_ok == 0:
        print("all sweep points failed", file=sys.stderr)
        return EXIT_SOLVER
    if n_ok < len(result.grid):
        print(f"warning: {len(result.grid) - n_ok} sweep points failed", file=sys.stderr)
    return EXIT_OK


def _cmd_lmax(args: argparse.Namespace) -> int:
    spec = _build_state(args)
    l_max, f_max = lmax(spec, args.c, (args.bracket[0], args.bracket[1]), tol=args.tol)
    payload = {
        "config_hash": _config_hash(args),
        "version": __version__,
        "c": args.c,
        "L_max": l_max,
        "F_max": f_max,
        "c_L_max": args.c * l_max,
    }
    _write_text(args.output, json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_imaging(args: argparse.Namespace) -> int:
    spec = _build_state(args)
    params = ModelParams(args.c, args.L)
    if any(p < 1 for p in args.pixels):
        raise ValueError("pixel counts must be >= 1")
    if args.sample is not None:
        if args.sample < 1:
            raise ValueError("--sample must be >= 1")
        if args.seed is None:
            raise ValueError("--sample requires --seed")
        if args.seed < 0:
            raise ValueError("--seed must be >= 0")
        # one atom, or one pixel (one realizable image), leaves the likelihood flat
        if spec.n == 1 or args.pixels[-1] == 1:
            raise ValueError("--sample needs N >= 2 and at least 2 pixels in the last grid")
    # every output is checked before the work and written after it, so a
    # bad path or a failure on the way leaves no partial output behind
    paths = [args.output]
    if args.sample is not None:
        paths += [args.shots_out, args.mle_out]
    _check_writable(paths)
    reference = cfi(spec, params)
    chash = _config_hash(args)
    lines = ["n_pixels,imaging_cfi,cfi,ratio,config_hash,version"]
    for npix in args.pixels:
        last_dist = image_distribution(spec, params, uniform_grid(args.L, npix))
        f_img = imaging_cfi(last_dist)
        # a zero reference CFI (N = 1, or an underflow at huge c) has no ratio
        ratio = f_img / reference if reference != 0 else math.nan
        numbers = map(_fmt, (f_img, reference, ratio))
        lines.append(",".join([str(npix), *numbers, chash, __version__]))
    texts = ["\n".join(lines) + "\n"]

    if args.sample is not None:
        # an imaging CFI that underflowed to 0 (huge c) leaves the likelihood flat
        if not f_img > 0:
            raise ValueError("imaging CFI is 0: the likelihood carries no information on c")
        shots = sample_images(last_dist, args.sample, args.seed)
        meta = {"config_hash": chash, "version": __version__, "c": args.c, "L": args.L}
        texts.append(_shots_text(shots, args.seed, meta))
        # grid spans +-6 Cramer-Rao sigma of the last grid's imaging CFI
        span = 6.0 / math.sqrt(args.sample * f_img)
        lo = max(args.c - span, 0.02 * args.c)
        c_grid = np.linspace(lo, args.c + span, 21)
        # as tuples: perfbench's tracer counts the distinct shots with set()
        rows = list(map(tuple, shots.tolist()))
        c_hat, loglik = mle_estimate(rows, spec, last_dist.grid, c_grid, args.L)
        summary = {
            "config_hash": chash,
            "version": __version__,
            "shots": args.sample,
            "seed": args.seed,
            "shots_file": args.shots_out,
            "c_true": args.c,
            "c_hat": c_hat,
            "c_grid": list(c_grid),
            "loglik": list(loglik),
        }
        texts.append(json.dumps(summary, indent=2, sort_keys=True))
    for path, text in zip(paths, texts):
        _write_text(path, text)
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="llfisher",
        description="Few-boson Lieb-Liniger states and coupling-estimation Fisher information",
    )
    parser.add_argument("--version", action="version", version=f"llfisher {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one eigenstate, print JSON")
    _add_state_options(p_solve)
    p_solve.add_argument("-c", type=float, required=True, help="interaction strength")
    p_solve.add_argument("-L", type=float, required=True, help="system size")
    p_solve.set_defaults(func=_cmd_solve)

    p_fisher = sub.add_parser("fisher", help="QFI/CFI sweep over c or L, print CSV")
    _add_state_options(p_fisher)
    p_fisher.add_argument("--axis", choices=("c", "L"), required=True)
    p_fisher.add_argument("--start", type=float, required=True)
    p_fisher.add_argument("--stop", type=float, required=True)
    p_fisher.add_argument("--num", type=int, required=True)
    p_fisher.add_argument("--log", action="store_true", help="geometric grid")
    p_fisher.add_argument("--fixed", type=float, required=True, help="value of the other axis")
    p_fisher.set_defaults(func=_cmd_fisher)

    p_lmax = sub.add_parser("lmax", help="system size maximizing the CFI")
    _add_state_options(p_lmax)
    p_lmax.add_argument("-c", type=float, required=True)
    p_lmax.add_argument(
        "--bracket", type=float, nargs=2, metavar=("LO", "HI"), required=True
    )
    p_lmax.add_argument("--tol", type=float, default=None)
    p_lmax.set_defaults(func=_cmd_lmax)

    p_img = sub.add_parser("imaging", help="absorption-imaging CFI vs pixel count")
    _add_state_options(p_img)
    p_img.add_argument("-c", type=float, required=True)
    p_img.add_argument("-L", type=float, required=True)
    p_img.add_argument("--pixels", type=int, nargs="+", required=True)
    p_img.add_argument("--sample", type=int, help="draw this many shots from the last grid")
    p_img.add_argument("--seed", type=int, help="shot RNG seed")
    p_img.add_argument(
        "--shots-out", default="shots.ndjson", help="shot file path (default %(default)s)"
    )
    p_img.add_argument(
        "--mle-out", default="mle.json", help="MLE summary path (default %(default)s)"
    )
    p_img.set_defaults(func=_cmd_imaging)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # each library warning once per call, as one line without its source
        warnings.simplefilter("default")
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except SolverError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        except BracketError as exc:
            print(f"bracket error: {exc}", file=sys.stderr)
            return EXIT_BRACKET
        except (ResourceLimitError, MemoryError) as exc:
            print(f"resource limit: {exc}", file=sys.stderr)
            return EXIT_RESOURCE
        except NumericalHealthError as exc:
            print(f"numerical check failed: {exc}", file=sys.stderr)
            return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
