"""Tests of the benchmark harness itself; they are not part of the Tier-1 suite.

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from llfisher import cli  # noqa: E402

# one small invocation per command, together reaching every traced layer
SMALL = [
    workloads.Invocation(
        "sweep",
        ("fisher", "--bc", "periodic", "-N", "3", "-I", "-1", "1", "2", "--axis", "L",
         "--start", "6", "--stop", "10", "--num", "2", "--fixed", "0.2"),
        2,
    ),
    workloads.Invocation(
        "lmax",
        ("lmax", "--bc", "hardwall", "-N", "2", "--ground", "-c", "1", "--bracket", "5", "20",
         "--tol", "0.5"),
        1,
    ),
    workloads.Invocation(
        "img",
        ("imaging", "--bc", "periodic", "-N", "2", "--ground", "-c", "0.2", "-L", "10",
         "--pixels", "2", "4", "--sample", "1000", "--seed", "0"),
        3,
    ),
]


def _llfisher_bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "llfisher" or name.startswith("llfisher.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    base = tmp_path_factory.mktemp("passes")
    before = _llfisher_bindings()
    probe = hostspeed.SpeedProbe()
    plain_wall, plain_codes, timings = run.run_pass(cli.main, SMALL, base / "plain", probe=probe)
    tracer = tracing.Tracer()
    traced_wall, traced_codes, _ = run.run_pass(cli.main, SMALL, base / "traced", tracer)
    assert set(plain_codes.values()) == {0} and set(traced_codes.values()) == {0}
    return {
        "base": base,
        "tracer": tracer,
        "wall": traced_wall,
        "plain_wall": plain_wall,
        "timings": timings,
        "probe": probe,
        "before": before,
        "after": _llfisher_bindings(),
    }


def test_self_times_nonnegative_and_within_traced_wall(passes):
    spans = passes["tracer"].spans
    own = tracing.self_times(spans)
    assert all(t >= 0.0 for t in own)
    assert sum(own) <= passes["wall"]
    metrics = tracing.layer_metrics(spans, passes["wall"])
    assert metrics["trace.self_sum_s"] == pytest.approx(sum(own), rel=1e-9)
    assert metrics["trace.unattributed_s"] >= 0.0


def test_every_layer_is_traced(passes):
    tracer = passes["tracer"]
    assert tracer.missing == []
    seen = {s.name for s in tracer.spans}
    assert seen == {name for name, *_ in tracing.LAYERS} | {tracing.ROOT}
    metrics = tracing.layer_metrics(tracer.spans, passes["wall"])
    assert metrics["fisher.lmax.objective_evals"] > 0
    assert metrics["fisher.qfi.pairs"] > 0
    assert metrics["imaging.mle.images_needed"] <= metrics["imaging.mle.images_computed"]


def test_traced_and_untraced_outputs_are_byte_identical(passes):
    plain = sorted((passes["base"] / "plain").iterdir())
    traced = sorted((passes["base"] / "traced").iterdir())
    assert [p.name for p in plain] == [p.name for p in traced]
    for a, b in zip(plain, traced):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_wrappers_are_removed_after_the_traced_run(passes):
    assert passes["after"] == passes["before"]
    import llfisher.fisher

    original = llfisher.fisher.solve_bethe
    with tracing.Tracer().installed():
        assert llfisher.fisher.solve_bethe is not original
    assert llfisher.fisher.solve_bethe is original


def test_probe_samples_only_while_active_and_restores_the_handler(passes):
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    timings = passes["timings"]
    assert len(timings) == len(SMALL)
    taken = [s for _, samples in timings for s in samples]
    assert len(taken) == len(passes["probe"].samples) > 0
    own, ref = hostspeed.rescale(timings)
    assert 0.0 < own < passes["plain_wall"]
    assert own == pytest.approx(passes["plain_wall"] - sum(taken), rel=1e-2)
    assert ref > 0.0


def test_rescale_cancels_the_host_speed():
    loop = hostspeed.REF_LOOP_S
    at_ref = hostspeed.rescale([(2.0 + 2 * loop, [loop, loop]), (1.0, [])])
    assert at_ref == pytest.approx((3.0, 3.0))
    # the same work on a host half as fast: twice the wall time, twice the loop time
    slow = hostspeed.rescale([(4.0 + 4 * loop, [2 * loop, 2 * loop]), (2.0, [])])
    assert slow == pytest.approx((6.0, 3.0))
    with pytest.raises(RuntimeError):
        hostspeed.rescale([(1.0, [])])


def test_setup_processes_report_their_host_speed_loops(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    [(elapsed, loops)] = run.measure_setup(workloads, hostspeed, "lmax-box3", tmp_path)
    assert len(loops) == 2 * run.SETUP_LOOPS
    assert 0.0 < sum(loops) < elapsed


def _reference_of(outdir: Path) -> dict:
    sweep = workloads.read_rows(outdir / "sweep.csv")
    img = workloads.read_rows(outdir / "img.csv")
    return {
        "fisher": {"sweep": [[float(r["value"]), float(r["qfi"]), float(r["cfi"])] for r in sweep]},
        "imaging_cfi": {"img": float(img[0]["cfi"])},
    }


@pytest.mark.parametrize(
    "column, factor, failed",
    [
        (None, 1.0, 0),
        (1, 1.0 + 0.5 * workloads.QFI_RTOL, 0),  # QFI inside its tolerance
        (1, 1.0 + 2.0 * workloads.QFI_RTOL, 2),
        (2, 1.0 + 0.5 * workloads.CFI_QUADRATURE_RTOL, 0),  # quadrature-route CFI
        (2, 1.0 + 2.0 * workloads.CFI_QUADRATURE_RTOL, 2),
    ],
)
def test_reference_checks_use_the_oracle_tolerances(passes, column, factor, failed):
    outdir = passes["base"] / "plain"
    ref = _reference_of(outdir)
    if column is not None:
        for row in ref["fisher"]["sweep"]:
            row[column] *= factor
    n_failed, problems = workloads.check_outputs(SMALL[0], outdir, ref)
    assert n_failed == failed, problems
    assert workloads.check_outputs(SMALL[2], outdir, ref) == (0, [])


def test_benchmark_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lmax-box3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
