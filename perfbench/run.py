#!/usr/bin/env python3
"""Benchmark of the llfisher command line.

One closed-loop caller in one process drives ``llfisher.cli.main(argv)``
through a workload's invocations, one after another, again and again for
``--seconds``.  Outputs go to a temporary directory under ``.perfbench/``.
After the timed passes, every output is checked (see ``workloads.py``).

    python3 perfbench/run.py --workload fisher-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including
the tracing overhead.  Untraced pass times and set-up times are rescaled
to a reference host speed measured while they run (see ``hostspeed.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output check passed, 1 when one failed, and 2 when the
package source is missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKERS_ENV = "LLFISHER_WORKERS"
SETUP_REPEATS = 11
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_LOOPS = 5  # host-speed loops the set-up process runs before and after its work
LOOPS_TAG = "host-speed loops:"

# interpreter start, package import and one small call of the workload's
# command, with the host-speed loop timed in the same process around them
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import hostspeed; "
    f"loops = hostspeed.loop_times({SETUP_LOOPS}); "
    "from llfisher import cli; code = cli.main(sys.argv[3:]); "
    f"loops += hostspeed.loop_times({SETUP_LOOPS}); "
    f"print({LOOPS_TAG!r}, *loops, file=sys.stderr); sys.exit(code)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workers_before, blas_env_before) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV},
        "blas_thread_env_before": blas_env_before,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llfisher_workers_cleared": True,
        "llfisher_workers_before": workers_before,
    }


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------


def invoke(cli_main, argv, tracer=None):
    """Exit code of one CLI invocation; None if it raised."""
    try:
        if tracer is None:
            return cli_main(argv)
        with tracer.root():
            return cli_main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code
    except Exception:  # a traceback is a failed operation, not a crashed benchmark
        traceback.print_exc()
        return None


def run_pass(cli_main, invs, outdir: Path, tracer=None, probe=None):
    """(wall seconds, exit code per invocation key, timings) of one pass.

    The timings hold one (wall seconds, host-speed loop samples taken
    during it) pair per invocation, as ``hostspeed.rescale`` takes them;
    without a probe the sample lists are empty.  Every pass writes under
    the same path, since output files may record the paths of the others,
    and the outputs move to ``outdir`` afterwards.
    """
    live = outdir.parent / "out"
    live.mkdir()
    argvs = [(inv.key, inv.full_argv(live)) for inv in invs]
    codes = {}
    timings = []
    samples = probe.samples if probe is not None else []
    patch = tracer.installed() if tracer is not None else contextlib.nullcontext()
    sampling = probe.sampling() if probe is not None else contextlib.nullcontext()
    with patch, sampling, contextlib.redirect_stdout(sys.stderr):
        start = time.perf_counter()
        for key, argv in argvs:
            first, begin = len(samples), time.perf_counter()
            codes[key] = invoke(cli_main, argv, tracer)
            timings.append((time.perf_counter() - begin, samples[first:]))
        wall = time.perf_counter() - start
    live.rename(outdir)
    return wall, codes, timings


def _outputs(outdir: Path, key: str) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.glob(key + ".*"))}


def check_pass(workloads, invs, outdir: Path, codes: dict, ref: dict, first_dir: Path):
    """(attempted, failed, problems) over one pass's operations.

    Beyond the checks of ``workloads``, every output must be byte-identical
    to the same output of the first pass.
    """
    attempted = failed = 0
    problems = []
    for inv in invs:
        attempted += inv.ops
        if codes[inv.key] != 0:
            failed += inv.ops
            problems.append(f"{inv.key}: exit code {codes[inv.key]}")
            continue
        n_failed, found = workloads.check_outputs(inv, outdir, ref)
        if outdir != first_dir and _outputs(outdir, inv.key) != _outputs(first_dir, inv.key):
            n_failed = inv.ops
            found.append(f"{inv.key}: outputs differ from the first pass")
        failed += n_failed
        problems += found
    return attempted, failed, problems


def measure_setup(workloads, hostspeed, workload: str, tmp: Path) -> list:
    """(wall seconds, host-speed loop samples) of each fresh interpreter that
    starts, imports llfisher and runs one small call.

    One unmeasured start first fills the bytecode and file caches.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
           *workloads.warmup_argv(workload, tmp)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=170)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up call exited with {proc.returncode}: {proc.stderr.strip()}")
        tagged = [ln for ln in proc.stderr.splitlines() if ln.startswith(LOOPS_TAG)]
        if not tagged:
            raise RuntimeError("set-up call reported no host-speed loop times")
        loops = [float(x) for x in tagged[-1][len(LOOPS_TAG):].split()]
        if i:
            times.append((elapsed, loops))
    return times


def measure(args, cli_main, workloads, tracing, hostspeed, tmp: Path) -> dict:
    invs = workloads.invocations(args.workload, args.seed)
    ref = workloads.load_reference()
    setup = measure_setup(workloads, hostspeed, args.workload, tmp)
    setup_own = [hostspeed.rescale([t])[0] for t in setup]
    setup_ref = [hostspeed.rescale([t])[1] for t in setup]
    with contextlib.redirect_stdout(sys.stderr):
        if cli_main(workloads.warmup_argv(args.workload, tmp)) != 0:
            raise RuntimeError("in-process warm-up call failed")

    passes = []  # (traced, wall, outdir, codes, tracer)
    plain = []  # (own seconds, seconds at the reference speed) of each untraced pass
    probe = hostspeed.SpeedProbe()
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        outdir = tmp / f"pass{len(passes)}"
        wall, codes, timings = run_pass(cli_main, invs, outdir, tracer, None if traced else probe)
        passes.append((traced, wall, outdir, codes, tracer))
        if not traced:
            plain.append(hostspeed.rescale(timings))
        # stop where the measured time ends nearest to --seconds
        elapsed = time.perf_counter() - begin
        longest = max(p[1] for p in passes)
        if len(passes) >= 1 + args.trace and elapsed + longest / 2 > args.seconds:
            break

    attempted = failed = 0
    problems = []
    for _, _, outdir, codes, _ in passes:
        a, f, p = check_pass(workloads, invs, outdir, codes, ref, passes[0][2])
        attempted, failed, problems = attempted + a, failed + f, problems + p

    own = [p[0] for p in plain]
    loop_s = statistics.median(probe.samples)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "order": [inv.key for inv in invs],
        "pass_walls": {"untraced": [p[1] for p in passes if not p[0]],
                       "traced": [p[1] for p in passes if p[0]]},
        "untraced_own_s": own,
        "untraced_ref_s": [p[1] for p in plain],
        "host_loop_s": loop_s,
        "host_samples": len(probe.samples),
        "setup_own_s": setup_own,
        "setup_ref_s": setup_ref,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if args.trace:
        traced = [p for p in passes if p[0]]
        per_pass = [tracing.layer_metrics(p[4].spans, p[1]) for p in traced]
        metrics = tracing.median_metrics(per_pass)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(own)
        metrics["host.wall_s"] = statistics.median(own)
        metrics["host.loop_s"] = loop_s
        metrics["host.setup_s"] = statistics.median(setup_own)
        result["metrics"] = metrics
        result["missing_layers"] = traced[0][4].missing
        result["spans"] = [[vars(s) for s in p[4].spans] for p in traced]
    else:
        result["metrics"] = {
            "wall_ref_s": statistics.median(p[1] for p in plain),
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "1"}


def unit_of(name: str) -> str:
    """Seconds for names ending in _s or .s, 1 for maxima and fractions, else a count."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if ".max_" in name or name.endswith("_frac"):
        return "1"
    return "count"


def report(result: dict, prov: dict) -> dict:
    attempted, failed = result["attempted"], result["failed"]
    metrics = dict(result["metrics"])
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {result['pass_walls']}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit_of(name)}")
    print(f"  {'fail_frac':40s} {failed / attempted:.6g} 1  ({failed}/{attempted} operations)")
    print(f"  untraced pass own times {result['untraced_own_s']} s, at the reference speed "
          f"{result['untraced_ref_s']} s; host loop median {result['host_loop_s']:.6g} s "
          f"over {result['host_samples']} samples")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def run_all(args, workload_names) -> int:
    """Each workload in its own process (so peak RSS is its own), then a table."""
    rows = []
    attempted = failed = 0
    metrics = {}
    for name in workload_names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: benchmark exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        out = json.loads(lines[-1])
        attempted += out["attempted"]
        failed += out["failed"]
        m = {k: v["value"] for k, v in out["metrics"].items()}
        m["fail_frac"] = out["failed"] / out["attempted"]
        saved = json.loads((WORK / f"result-{name}-seed{args.seed}-trace0.json").read_text())
        m["wall_s"] = statistics.median(saved["untraced_own_s"])  # not rescaled
        rows.append((name, m))
        metrics.update({f"{name}.{k}": {"value": v, "unit": unit_of(k)} for k, v in m.items()})
    columns = ["wall_s", *UNITS]
    print("  ".join(f"{h:>18s}" for h in ["workload"] + [f"{k} ({unit_of(k)})" for k in columns]))
    for name, m in rows:
        print("  ".join([f"{name:>18s}"] + [f"{m[k]:>18.6g}" for k in columns]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "llfisher" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    workers_before = os.environ.pop(WORKERS_ENV, None)  # sweeps stay in this process
    # one BLAS thread: the program's kernels are too small to gain from more,
    # and an idle second thread spinning on a shared core only adds noise
    blas_env_before = {k: os.environ.get(k) for k in BLAS_THREAD_ENV}
    os.environ.update({k: "1" for k in BLAS_THREAD_ENV})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import hostspeed
    import tracing
    import workloads
    from llfisher import cli

    if Path(cli.__file__).resolve().parent != (SRC / "llfisher").resolve():
        print(f"error: llfisher imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        result = measure(args, cli.main, workloads, tracing, hostspeed, tmp)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    prov = provenance(workers_before, blas_env_before)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        (WORK / f"spans-{stem}.json").write_text(json.dumps(spans), encoding="utf-8")
    (WORK / f"result-{stem}.json").write_text(
        json.dumps({**result, "provenance": prov}, indent=1, sort_keys=True), encoding="utf-8"
    )
    line = report(result, prov)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
