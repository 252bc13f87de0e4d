"""CLI surface: subcommands, exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from llfisher.bethe import BoundaryCondition, type1_excitation, type2_excitation
from llfisher import cli
from llfisher.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_box_single_particle_exact(capsys):
    code, out, _ = run(
        capsys, "solve", "--bc", "hardwall", "-N", "1", "-I", "1", "-c", "5", "-L", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k"][0] == pytest.approx(np.pi / 2, rel=1e-14)
    assert payload["norm_sq"] == pytest.approx(4.0)
    assert payload["residual"] == 0.0


def test_solve_ring_smoke(capsys):
    code, out, _ = run(
        capsys, "solve", "--bc", "periodic", "-N", "2", "--ground", "-c", "1", "-L", "1"
    )
    assert code == 0
    payload = json.loads(out)
    for key in ("k", "dk_dc", "energy", "momentum", "norm_sq", "config_hash", "version"):
        assert key in payload
    assert payload["k"] == sorted(payload["k"])


def test_solve_duplicate_quantum_numbers_exits_2(capsys):
    code, _, err = run(
        capsys, "solve", "--bc", "periodic", "-N", "2", "-I", "0.5", "0.5",
        "-c", "1", "-L", "1",
    )
    assert code == 2
    assert "increasing" in err


def test_solve_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "solve", "--bc", "periodic", "-N", "2", "--ground",
        "-c", "1", "-L", "1", "-o", str(target),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


def test_state_selector_must_be_unique(capsys):
    code, _, err = run(
        capsys, "solve", "--bc", "periodic", "-N", "2", "--ground", "--type1", "1",
        "-c", "1", "-L", "1",
    )
    assert code == 2


# ---------------------------------------------------------------------------
# fisher
# ---------------------------------------------------------------------------


def test_fisher_l_sweep_peaks_near_cl_ratio(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "fisher", "--bc", "periodic", "-N", "2", "--ground",
        "--axis", "L", "--start", "30", "--stop", "80", "--num", "11",
        "--fixed", "0.2", "-o", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    values = np.array([float(r[1]) for r in rows])
    cfis = np.array([float(r[3]) for r in rows])
    # Fisher information peaks around L = 52.75 at c = 0.2
    assert abs(values[int(np.argmax(cfis))] - 52.75) <= 5.0
    assert all(r[7] == "ok" for r in rows)


def test_fisher_csv_is_byte_identical_between_runs(tmp_path, capsys):
    args = (
        "fisher", "--bc", "hardwall", "-N", "2", "--ground", "--axis", "c",
        "--start", "0.5", "--stop", "2.0", "--num", "3", "--fixed", "1.0",
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "-o", str(a))[0] == 0
    assert run(capsys, *args, "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_parser_is_built_once_and_keeps_no_state_between_calls():
    assert cli.build_parser() is cli.build_parser()
    state = ("imaging", "--bc", "periodic", "-N", "2", "--ground", "-c", "0.2", "-L", "10")
    sample = ("--pixels", "4", "8", "--sample", "5", "--seed", "1")
    first = cli.build_parser().parse_args([*state, *sample])
    second = cli.build_parser().parse_args([*state, "--pixels", "4"])
    assert (first.pixels, first.sample, first.seed) == ([4, 8], 5, 1)
    assert (second.pixels, second.sample, second.seed) == ([4], None, None)


# One base command line per subcommand, and per parsed argument one change
# of that argument alone (argparse keeps the last of a repeated option).
# The base selects no state: the parser leaves that check to the handler.
_HASH_STATE = ("--bc", "periodic", "-N", "2")
_HASH_BASES = {
    "solve": ("solve", *_HASH_STATE, "-c", "1", "-L", "2"),
    "fisher": ("fisher", *_HASH_STATE, "--axis", "c", "--start", "1", "--stop", "2",
               "--num", "3", "--fixed", "1"),
    "lmax": ("lmax", *_HASH_STATE, "-c", "1", "--bracket", "5", "20"),
    "imaging": ("imaging", *_HASH_STATE, "-c", "1", "-L", "2", "--pixels", "4"),
}
_HASH_COMMON_CHANGES = {
    "bc": ("--bc", "hardwall"),
    "n": ("-N", "3"),
    "ground": ("--ground",),
    "type1": ("--type1", "1"),
    "type2": ("--type2", "1"),
    "quantum_numbers": ("-I", "0.5", "1.5"),
    "output": ("-o", "elsewhere"),
}
_HASH_CHANGES = {
    "solve": {"c": ("-c", "1.5"), "L": ("-L", "3")},
    "fisher": {
        "axis": ("--axis", "L"),
        "start": ("--start", "1.5"),
        "stop": ("--stop", "3"),
        "num": ("--num", "4"),
        "log": ("--log",),
        "fixed": ("--fixed", "2"),
    },
    "lmax": {"c": ("-c", "1.5"), "bracket": ("--bracket", "5", "30"), "tol": ("--tol", "0.1")},
    "imaging": {
        "c": ("-c", "1.5"),
        "L": ("-L", "3"),
        "pixels": ("--pixels", "4", "8"),
        "sample": ("--sample", "10"),
        "seed": ("--seed", "3"),
        "shots_out": ("--shots-out", "elsewhere.ndjson"),
        "mle_out": ("--mle-out", "elsewhere.json"),
    },
}


@pytest.mark.parametrize("command", sorted(_HASH_BASES))
def test_config_hash_covers_every_argument_but_outputs_and_draw(command):
    parse = cli.build_parser().parse_args
    base = parse(_HASH_BASES[command])
    changes = {**_HASH_COMMON_CHANGES, **_HASH_CHANGES[command]}
    # an option added to the parser must be added here, and so be checked
    assert set(changes) == set(vars(base)) - {"func", "command"}
    for dest, extra in changes.items():
        changed = parse([*_HASH_BASES[command], *extra])
        assert [k for k in vars(base) if vars(changed)[k] != vars(base)[k]] == [dest]
        moved = cli._config_hash(changed) != cli._config_hash(base)
        assert moved == (dest not in cli._NOT_CONFIG), dest


def test_fisher_covers_excitation_state_set(tmp_path, capsys):
    # the six box N=3 states compared in the excitation analysis, one
    # sweep file per state
    states = ["1 2 3", "1 2 4", "1 2 5", "1 2 6", "1 3 4", "2 3 4"]
    for idx, qn in enumerate(states):
        out_file = tmp_path / f"state_{idx}.csv"
        code, _, _ = run(
            capsys, "fisher", "--bc", "hardwall", "-N", "3", "-I", *qn.split(),
            "--axis", "L", "--start", "50", "--stop", "70", "--num", "2",
            "--fixed", "0.2", "-o", str(out_file),
        )
        assert code == 0
        rows = [line.split(",") for line in out_file.read_text().splitlines()[2:]]
        assert len(rows) == 2
        assert all(r[7] == "ok" and float(r[2]) > 0 for r in rows)


def _sweep_rows(capsys, tmp_path, name, *argv):
    out_file = tmp_path / f"{name}.csv"
    code, _, _ = run(capsys, "fisher", *argv, "-o", str(out_file))
    assert code == 0
    return [line.split(",") for line in out_file.read_text().splitlines()[2:]]


@pytest.mark.parametrize(
    "bc,flag,q,make",
    [("periodic", "--type1", 2, type1_excitation), ("hardwall", "--type2", 1, type2_excitation)],
    ids=["type1", "type2"],
)
def test_fisher_excitation_flags_match_their_quantum_numbers(tmp_path, capsys, bc, flag, q, make):
    spec = make(BoundaryCondition(bc), 3, q)
    sweep = ("--axis", "L", "--start", "6", "--stop", "9", "--num", "2", "--fixed", "0.5")
    state = ("--bc", bc, "-N", "3")
    by_flag = _sweep_rows(capsys, tmp_path, "flag", *state, flag, str(q), *sweep)
    by_labels = _sweep_rows(
        capsys, tmp_path, "labels", *state, "-I", *map(repr, spec.quantum_numbers), *sweep
    )
    assert len(by_flag) == 2 and all(r[7] == "ok" for r in by_flag)
    # the config hash records the selector, so it alone differs
    assert [r[:8] + r[9:] for r in by_flag] == [r[:8] + r[9:] for r in by_labels]


def test_fisher_log_grid_is_geometric(tmp_path, capsys):
    rows = _sweep_rows(
        capsys, tmp_path, "log", "--bc", "periodic", "-N", "2", "--ground",
        "--axis", "c", "--start", "0.01", "--stop", "10", "--num", "4", "--fixed", "1", "--log",
    )
    values = np.array([float(r[1]) for r in rows])
    assert np.array_equal(values, np.geomspace(0.01, 10.0, 4))
    assert all(r[7] == "ok" for r in rows)


def test_fisher_empty_grid_exits_2(capsys):
    code, _, _ = run(
        capsys, "fisher", "--bc", "periodic", "-N", "2", "--ground",
        "--axis", "c", "--start", "1", "--stop", "2", "--num", "0", "--fixed", "1.0",
    )
    assert code == 2


def test_fisher_flags_failed_points_but_continues(tmp_path, capsys):
    # c = 0 is degenerate for the ground state: row flagged, exit still 0
    out_file = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys, "fisher", "--bc", "periodic", "-N", "2", "--ground",
        "--axis", "c", "--start", "0", "--stop", "1", "--num", "3",
        "--fixed", "1.0", "-o", str(out_file),
    )
    assert code == 0
    assert "failed" in err
    lines = out_file.read_text().splitlines()
    assert any("error:" in line for line in lines)


def test_fisher_out_of_domain_fixed_value_exits_2(tmp_path, capsys):
    # a negative coupling is an argument error (as for lmax and imaging),
    # not one failed row per point
    out_file = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys, "fisher", "--bc", "periodic", "-N", "2", "--ground",
        "--axis", "L", "--start", "1", "--stop", "2", "--num", "2",
        "--fixed", "-1", "-o", str(out_file),
    )
    assert code == 2
    assert "interaction strength" in err
    assert not out_file.exists()


def test_fisher_above_particle_cap_exits_2(tmp_path, capsys):
    # the cap is an argument error known before any point runs, not one
    # failed row per point, and the message names no library keyword
    out_file = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys, "fisher", "--bc", "periodic", "-N", "6", "--ground",
        "--axis", "L", "--start", "5", "--stop", "6", "--num", "2",
        "--fixed", "0.2", "-o", str(out_file),
    )
    assert code == 2
    assert "particle cap of 5" in err
    assert "allow_large_n" not in err
    assert not out_file.exists()


def test_fisher_box_strong_coupling_rows_are_ok(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys, "fisher", "--bc", "hardwall", "-N", "3", "--ground",
        "--axis", "L", "--start", "1e4", "--stop", "1e5", "--num", "2",
        "--fixed", "1", "-o", str(out_file),
    )
    assert code == 0
    assert err == ""
    rows = [line.split(",") for line in out_file.read_text().splitlines()[2:]]
    assert [r[7] for r in rows] == ["ok", "ok"]


# ---------------------------------------------------------------------------
# lmax
# ---------------------------------------------------------------------------


def test_lmax_record(tmp_path, capsys):
    code, out, _ = run(
        capsys, "lmax", "--bc", "hardwall", "-N", "2", "--ground",
        "-c", "0.2", "--bracket", "10", "150",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["L_max"] == pytest.approx(57.0, rel=0.01)
    assert payload["c_L_max"] == pytest.approx(11.40, rel=0.01)


def test_lmax_without_interior_maximum_exits_4(capsys):
    code, _, err = run(
        capsys, "lmax", "--bc", "periodic", "-N", "2", "--ground",
        "-c", "0.2", "--bracket", "150", "250",
    )
    assert code == 4
    assert "bracket" in err.lower()


def test_lmax_nan_tolerance_exits_2(capsys):
    # a NaN tolerance used to end the search at once and print the midpoint
    code, out, err = run(
        capsys, "lmax", "--bc", "hardwall", "-N", "2", "--ground",
        "-c", "0.2", "--bracket", "10", "150", "--tol", "nan",
    )
    assert code == 2
    assert out == ""
    assert "tolerance" in err


# ---------------------------------------------------------------------------
# imaging
# ---------------------------------------------------------------------------


def test_imaging_ratio_column_increases(tmp_path, capsys):
    out_file = tmp_path / "imaging.csv"
    code, _, _ = run(
        capsys, "imaging", "--bc", "periodic", "-N", "2", "--ground",
        "-c", "0.2", "-L", "10", "--pixels", "2", "4", "8", "-o", str(out_file),
    )
    assert code == 0
    rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
    ratios = [float(r[3]) for r in rows]
    assert ratios == sorted(ratios)
    assert ratios[-1] > ratios[0]


@pytest.mark.parametrize("bc", ["periodic", "hardwall"])
def test_imaging_ratio_is_nan_without_reference_cfi(tmp_path, capsys, bc):
    # one atom carries no coupling information: the ratio used to divide by 0
    out_file = tmp_path / "imaging.csv"
    code, _, err = run(
        capsys, "imaging", "--bc", bc, "-N", "1", "--ground",
        "-c", "1", "-L", "1", "--pixels", "2", "-o", str(out_file),
    )
    assert (code, err) == (0, "")
    row = out_file.read_text().splitlines()[1].split(",")
    assert row[1:4] == ["0", "0", "nan"]


def test_imaging_rejects_zero_pixels(capsys):
    code, _, _ = run(
        capsys, "imaging", "--bc", "periodic", "-N", "2", "--ground",
        "-c", "0.2", "-L", "10", "--pixels", "0",
    )
    assert code == 2


def test_imaging_sample_writes_shots_and_mle(tmp_path, capsys):
    shots_file = tmp_path / "shots.ndjson"
    mle_file = tmp_path / "mle.json"
    args = (
        "imaging", "--bc", "periodic", "-N", "2", "--ground",
        "-c", "0.5", "-L", "4", "--pixels", "4",
        "--sample", "2000", "--seed", "7",
        "--shots-out", str(shots_file), "--mle-out", str(mle_file),
        "-o", str(tmp_path / "img.csv"),
    )
    assert run(capsys, *args)[0] == 0
    header = json.loads(shots_file.read_text().splitlines()[0])
    assert header["seed"] == 7
    summary = json.loads(mle_file.read_text())
    assert summary["shots"] == 2000
    # 3 Cramer-Rao sigma at this configuration is ~0.36
    assert abs(summary["c_hat"] - 0.5) <= 0.36

    # identical config + seed reproduces the files byte for byte
    outputs = (shots_file, mle_file, tmp_path / "img.csv")
    first = [path.read_bytes() for path in outputs]
    assert run(capsys, *args)[0] == 0
    assert [path.read_bytes() for path in outputs] == first


@pytest.mark.parametrize(
    "state,pixels",
    [
        (("--bc", "periodic", "-N", "1", "--ground", "-c", "1", "-L", "1"), "2"),
        (("--bc", "hardwall", "-N", "1", "--ground", "-c", "1", "-L", "1"), "2"),
        (("--bc", "periodic", "-N", "2", "--ground", "-c", "0.2", "-L", "10"), "1"),
    ],
    ids=["ring-n1", "box-n1", "ring2-one-pixel"],
)
def test_imaging_sample_without_information_on_c_exits_2(tmp_path, capsys, state, pixels):
    # one atom, or one pixel (one realizable image), leaves the likelihood
    # flat: these wrote c_hat 0.02 and 5.6e11 against c_true 1 and 0.2
    code, out, err = run(
        capsys, "imaging", *state, "--pixels", pixels, "--sample", "10", "--seed", "0",
        "-o", str(tmp_path / "img.csv"),
        "--shots-out", str(tmp_path / "shots.ndjson"), "--mle-out", str(tmp_path / "mle.json"),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: --sample needs N >= 2")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _mle_c_grid(capsys, tmp_path, c, L):
    outdir = tmp_path / f"{c}-{L}"
    outdir.mkdir()
    code, _, _ = run(
        capsys, "imaging", "--bc", "hardwall", "-N", "2", "--ground", "-c", c, "-L", L,
        "--pixels", "4", "--sample", "1000", "--seed", "1", "-o", str(outdir / "img.csv"),
        "--shots-out", str(outdir / "shots.ndjson"), "--mle-out", str(outdir / "mle.json"),
    )
    assert code == 0
    return np.array(json.loads((outdir / "mle.json").read_text())["c_grid"])


def test_mle_c_grid_scales_with_the_coupling(tmp_path, capsys):
    # F_img(c, L) = L^2 F~(cL), so +-6 Cramer-Rao sigma scale as c does under
    # (c, L) -> (10 c, L / 10).  F_img is 5.7e-33 at c = 1e8, L = 10, and an
    # absolute floor of 1e-12 on sqrt(shots F_img) fixed the span at 6e12
    # for both; by c = 1e28 such a span vanished against c and the grid
    # collapsed ("c grid must be strictly increasing")
    grid = _mle_c_grid(capsys, tmp_path, "1e8", "10")
    assert grid[-1] > 1e15
    assert _mle_c_grid(capsys, tmp_path, "1e9", "1") == pytest.approx(10 * grid, rel=1e-6)
    wide = _mle_c_grid(capsys, tmp_path, "1e50", "10")
    assert wide[0] == 0.02 * 1e50 and wide[-1] > 1e99


def test_mle_with_zero_imaging_cfi_exits_2(tmp_path, capsys):
    # at c = 1e90 the imaging CFI underflows to 0 and the likelihood is flat
    code, out, err = run(
        capsys, "imaging", "--bc", "hardwall", "-N", "2", "--ground", "-c", "1e90", "-L", "10",
        "--pixels", "4", "--sample", "1000", "--seed", "1", "-o", str(tmp_path / "img.csv"),
        "--shots-out", str(tmp_path / "shots.ndjson"), "--mle-out", str(tmp_path / "mle.json"),
    )
    assert (code, out) == (2, "")
    assert err == "error: imaging CFI is 0: the likelihood carries no information on c\n"
    assert list(tmp_path.iterdir()) == []


def test_imaging_sample_requires_seed(capsys):
    code, _, err = run(
        capsys, "imaging", "--bc", "periodic", "-N", "2", "--ground",
        "-c", "0.5", "-L", "4", "--pixels", "4", "--sample", "10",
    )
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize(
    "sample_args", [("--sample", "0", "--seed", "1"), ("--sample", "3")], ids=["zero", "no-seed"]
)
def test_imaging_bad_sample_exits_2_before_writing(tmp_path, capsys, sample_args):
    outputs = [tmp_path / name for name in ("img.csv", "shots.ndjson", "mle.json")]
    code, out, err = run(
        capsys, "imaging", "--bc", "periodic", "-N", "2", "--ground",
        "-c", "0.5", "-L", "4", "--pixels", "4", *sample_args,
        "-o", str(outputs[0]), "--shots-out", str(outputs[1]), "--mle-out", str(outputs[2]),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert not any(path.exists() for path in outputs)


def test_imaging_unwritable_shot_file_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "imaging", "--bc", "periodic", "-N", "2", "--ground",
        "-c", "0.5", "-L", "4", "--pixels", "4", "--sample", "5", "--seed", "1",
        "--shots-out", str(tmp_path / "missing" / "x"), "--mle-out", str(tmp_path / "mle.json"),
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "mle.json").exists()


def test_imaging_unwritable_mle_file_writes_nothing(tmp_path, capsys):
    # the CSV path exists already: checking it must not truncate it
    csv_file = tmp_path / "img.csv"
    csv_file.write_text("old\n")
    code, out, err = run(
        capsys, "imaging", "--bc", "periodic", "-N", "2", "--ground",
        "-c", "0.5", "-L", "4", "--pixels", "4", "--sample", "5", "--seed", "1",
        "-o", str(csv_file), "--shots-out", str(tmp_path / "shots.ndjson"),
        "--mle-out", str(tmp_path / "missing" / "mle.json"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "mle.json" in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img.csv"]
    assert csv_file.read_text() == "old\n"


def test_library_warning_prints_one_line(tmp_path, capsys):
    # five shots with seed 1 put the likelihood maximum on the edge of the c grid
    code, _, err = run(
        capsys, "imaging", "--bc", "periodic", "-N", "2", "--ground",
        "-c", "0.5", "-L", "4", "--pixels", "4", "--sample", "5", "--seed", "1",
        "-o", str(tmp_path / "img.csv"), "--shots-out", str(tmp_path / "shots.ndjson"),
        "--mle-out", str(tmp_path / "mle.json"),
    )
    assert code == 0
    assert err == "warning: likelihood maximum at the edge of the c grid\n"
    assert (tmp_path / "mle.json").exists()


def test_imaging_over_image_cap_exits_5(capsys):
    # 1000 pixels give 502,503 two-atom images, above the default cap
    code, _, err = run(
        capsys, "imaging", "--bc", "periodic", "-N", "2", "--ground",
        "-c", "0.2", "-L", "10", "--pixels", "1000",
    )
    assert code == 5
    assert err.startswith("resource limit:")


def test_imaging_above_particle_cap_exits_2(tmp_path, capsys):
    out_file = tmp_path / "imaging.csv"
    code, _, err = run(
        capsys, "imaging", "--bc", "hardwall", "-N", "5", "--ground",
        "-c", "0.2", "-L", "10", "--pixels", "2", "-o", str(out_file),
    )
    assert code == 2
    assert "particle cap of 4" in err
    assert "allow_large_n" not in err
    assert not out_file.exists()


def test_imaging_probability_sum_check_exits_6(capsys, monkeypatch):
    import llfisher.imaging

    # any deviation fails a negative tolerance
    monkeypatch.setattr(llfisher.imaging, "PROB_SUM_TOL", -1.0)
    code, _, err = run(
        capsys, "imaging", "--bc", "periodic", "-N", "2", "--ground",
        "-c", "0.2", "-L", "10", "--pixels", "2",
    )
    assert code == 6
    assert err.startswith("numerical check failed:")


def test_lmax_above_particle_cap_exits_2(capsys):
    code, out, err = run(
        capsys, "lmax", "--bc", "periodic", "-N", "6", "--ground",
        "-c", "0.2", "--bracket", "10", "150",
    )
    assert code == 2
    assert out == ""
    assert "particle cap of 5" in err
    assert "allow_large_n" not in err


@pytest.mark.parametrize("bc", ["periodic", "hardwall"])
def test_lmax_of_one_particle_exits_2(capsys, bc):
    # its CFI is 0 at every L; the search used to end at the bracket edge
    # and exit 4 with advice to widen a bracket that holds no maximum
    code, out, err = run(
        capsys, "lmax", "--bc", bc, "-N", "1", "--ground", "-c", "1", "--bracket", "1", "2",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "one particle" in err


@pytest.mark.parametrize("bc,n", [("periodic", 6), ("hardwall", 9)])
def test_solve_above_particle_cap_solves(capsys, bc, n):
    # the cap bounds the permutation sums of fisher, lmax and imaging;
    # solve sums none, so it solves any N
    code, out, _ = run(capsys, "solve", "--bc", bc, "-N", str(n), "--ground", "-c", "1", "-L", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == n and len(payload["k"]) == n
    assert payload["residual"] < 1e-10


def test_lmax_qfi_residue_check_exits_6(capsys, monkeypatch):
    import llfisher.fisher

    # any residue fails a negative tolerance
    monkeypatch.setattr(llfisher.fisher, "QFI_IMAG_RTOL", -1.0)
    code, _, err = run(
        capsys, "lmax", "--bc", "hardwall", "-N", "2", "--ground",
        "-c", "0.2", "--bracket", "10", "150",
    )
    assert code == 6
    assert "imaginary residue" in err


# ---------------------------------------------------------------------------
# documented exit codes at the edges of the input domain
# ---------------------------------------------------------------------------

RING4 = ("--bc", "periodic", "-N", "4", "--ground")
BOX3 = ("--bc", "hardwall", "-N", "3", "--ground")
RING5_GENERAL = ("--bc", "periodic", "-N", "5", "-I", "-2", "-1", "0", "1", "3")


@pytest.mark.parametrize(
    "argv,exit_code,prefix",
    [
        # det H underflows to 0 at L = 1e-90; the QFI used to divide by it
        (("fisher", *RING4, "--axis", "L", "--start", "1e-90", "--stop", "1e-90",
          "--num", "1", "--fixed", "1"), 3, "all sweep points failed"),
        (("lmax", *RING4, "-c", "1", "--bracket", "1e-90", "2e-90"), 3, "solver failure:"),
        (("imaging", *RING4, "-c", "1", "-L", "1e-90", "--pixels", "2"), 3, "solver failure:"),
        (("solve", *RING4, "-c", "1", "-L", "1e-90"), 3, "solver failure:"),
        # the box ground-state quasimomenta coincide in double precision
        (("imaging", *BOX3, "-c", "1e-30", "-L", "1", "--pixels", "2"), 3,
         "solver failure: coincident quasimomenta"),
        (("lmax", *BOX3, "-c", "1e-30", "--bracket", "0.5", "2"), 3,
         "solver failure: coincident quasimomenta"),
        # pair gaps that rounding cannot resolve: atan(u / c) rounds to
        # +-pi/2, the residual reads 0, and solve exited 0 with k 17 % off
        # (ring N = 2 ground at c = 1e-20, L = 1e-10), k = +-2.2e134, and
        # three box k equal to 10 digits
        (("solve", "--bc", "periodic", "-N", "2", "--ground", "-c", "1e-20", "-L", "1e-10"),
         3, "solver failure: coincident quasimomenta"),
        (("solve", "--bc", "periodic", "-N", "2", "--ground", "-c", "1e-200", "-L", "1e-150"),
         3, "solver failure: coincident quasimomenta"),
        (("solve", *BOX3, "-c", "1e-30", "-L", "1"), 3, "solver failure: coincident quasimomenta"),
        # non-finite quantum numbers
        (("solve", "--bc", "periodic", "-N", "1", "-I", "nan", "-c", "1", "-L", "1"),
         2, "error: quantum numbers must be finite"),
        (("solve", "--bc", "periodic", "-N", "2", "-I", "nan", "nan", "-c", "1", "-L", "1"),
         2, "error: quantum numbers must be finite"),
        # an infinite bracket edge, with and without an explicit tolerance
        (("lmax", "--bc", "hardwall", "-N", "2", "--ground", "-c", "0.2",
          "--bracket", "10", "inf"), 2, "error: bracket"),
        (("lmax", "--bc", "hardwall", "-N", "2", "--ground", "-c", "0.2",
          "--bracket", "10", "inf", "--tol", "0.1"), 2, "error: bracket"),
        # simplex integrals out of the double range; at c = 2/L these read
        # QFI 1.4419e-130 (3.2 % off), nan, and QFI -3.4e-94 with CFI inf,
        # all as ok rows
        (("fisher", *BOX3, "--axis", "L", "--start", "1e-64", "--stop", "1e-64",
          "--num", "1", "--fixed", "2e64"), 3, "all sweep points failed"),
        (("fisher", *BOX3, "--axis", "L", "--start", "1e-106", "--stop", "1e-106",
          "--num", "1", "--fixed", "2e106"), 3, "all sweep points failed"),
        (("fisher", *RING5_GENERAL, "--axis", "L", "--start", "1e-46", "--stop", "1e-46",
          "--num", "1", "--fixed", "2e46"), 3, "all sweep points failed"),
        # once the degeneracy test is relative, L**n in the simplex kernel
        # overflows here; that was an OverflowError traceback
        (("imaging", *RING4, "-c", "2e-53", "-L", "1e53", "--pixels", "2"), 6,
         "numerical check failed: simplex integrals"),
        # arrays of 7 PiB, refused at once by the allocator; these were
        # numpy _ArrayMemoryError tracebacks with exit 1
        (("fisher", "--bc", "periodic", "-N", "2", "--ground", "--axis", "L", "--start", "1",
          "--stop", "2", "--num", "1000000000000000", "--fixed", "1"), 5,
         "resource limit: Unable to allocate"),
        (("imaging", "--bc", "periodic", "-N", "2", "--ground", "-c", "1", "-L", "1",
          "--pixels", "4", "--sample", "1000000000000000", "--seed", "1",
          "--shots-out", "-", "--mle-out", "-"), 5, "resource limit: Unable to allocate"),
        # a negative seed failed in numpy's generator after every distribution
        # was computed; at L = 1e-90 the work would fail first, with exit 3
        (("imaging", *RING4, "-c", "1", "-L", "1e-90", "--pixels", "2", "--sample", "10",
          "--seed", "-1", "--shots-out", "-", "--mle-out", "-"), 2, "error: --seed must be >= 0"),
        (("imaging", "--bc", "periodic", "-N", "2", "--ground", "-c", "1", "-L", "1",
          "--pixels", "4", "--sample", "10", "--seed", "-1", "--shots-out", "-",
          "--mle-out", "-"), 2, "error: --seed must be >= 0"),
        # c^2 underflows: g c / 0, inf - inf and det of inf in the Gaudin
        # matrix printed numpy's RuntimeWarning before the solver failure
        (("solve", "--bc", "hardwall", "-N", "2", "--ground", "-c", "1e-300", "-L", "1"), 3,
         "solver failure: Newton line search stalled"),
        (("fisher", "--bc", "hardwall", "-N", "2", "--ground", "--axis", "c", "--start", "1e-300",
          "--stop", "1e-300", "--num", "1", "--fixed", "1"), 3, "all sweep points failed"),
        (("solve", "--bc", "hardwall", "-N", "2", "--type2", "1", "-c", "1e-300", "-L", "1e200"),
         3, "solver failure: Newton line search stalled"),
        (("solve", "--bc", "periodic", "-N", "3", "-I", "-1", "1", "2", "-c", "1e-250",
          "-L", "1e300"), 3, "solver failure: Gaudin determinant nan"),
        # grid ends numpy cannot space: its log10 warning or its own wording came first
        (("fisher", "--bc", "periodic", "-N", "2", "--ground", "--axis", "c", "--start", "0",
          "--stop", "1", "--num", "3", "--log", "--fixed", "1"), 2,
         "error: --start and --stop must be finite, and > 0"),
        (("fisher", "--bc", "periodic", "-N", "2", "--ground", "--axis", "c", "--start", "-1",
          "--stop", "1", "--num", "3", "--log", "--fixed", "1"), 2,
         "error: --start and --stop must be finite, and > 0"),
        (("fisher", "--bc", "periodic", "-N", "2", "--ground", "--axis", "L", "--start", "1",
          "--stop", "inf", "--num", "3", "--fixed", "1"), 2,
         "error: --start and --stop must be finite, and > 0"),
    ],
    ids=["fisher-underflow", "lmax-underflow", "imaging-underflow", "solve-underflow",
         "imaging-collapsed", "lmax-collapsed",
         "solve-ring2-unresolved", "solve-ring2-unresolved-1e-200", "solve-box3-collapsed",
         "solve-nan", "solve-nan-pair", "lmax-inf", "lmax-inf-tol",
         "fisher-box3-1e-64", "fisher-box3-1e-106", "fisher-ring5-1e-46",
         "imaging-ring4-1e53", "fisher-num-1e15", "imaging-sample-1e15",
         "imaging-negative-seed-first", "imaging-negative-seed",
         "solve-box2-c-1e-300", "fisher-box2-c-1e-300", "solve-box2-type2-c-1e-300",
         "solve-ring3-c-1e-250", "fisher-log-zero", "fisher-log-negative", "fisher-stop-inf"],
)
def test_domain_edges_exit_with_documented_code(capsys, argv, exit_code, prefix):
    code, out, err = run(capsys, *argv)
    assert code == exit_code
    assert err.startswith(prefix)
    assert "Traceback" not in err and len(err.splitlines()) == 1
    if argv[0] == "fisher" and exit_code == 3:
        # det H underflows at L = 1e-90 and the Newton line search stalls at
        # c = 1e-300; the other sweeps leave the double range
        in_solver = "1e-90" in argv or "1e-300" in argv
        error = "SolverError: " if in_solver else "NumericalHealthError: simplex integrals"
        assert f",error:{error}" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--bc", "hardwall", "-N", "2", "--ground", "-c", "1", "-L", "1e-300"),
        ("imaging", *BOX3, "-c", "1", "-L", "1e-60", "--pixels", "2"),
        ("fisher", *BOX3, "--axis", "L", "--start", "1e-60", "--stop", "1e-60",
         "--num", "1", "--fixed", "1"),
    ],
    ids=["solve-box2", "imaging-box3", "fisher-box3"],
)
def test_singular_newton_step_exits_3(capsys, argv):
    # the Newton iterates coincide and the Gaudin matrix is singular; no
    # continuation follows, since it could end on wrong pair gaps (the
    # box N = 3 sweep used to write an ok row with QFI 2.97e-113)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert "singular Gaudin matrix" in (out if argv[0] == "fisher" else err)
    assert "Singular matrix" not in err and "Traceback" not in err
    if argv[0] == "fisher":
        assert ",ok," not in out
        assert ",error:SolverError: singular Gaudin matrix" in out
    else:
        assert out == ""


def test_determinant_overflow_prints_one_line(capsys):
    # np.linalg.det overflows to inf before the finiteness check raises;
    # its RuntimeWarning printed a "warning: overflow" line first
    code, out, err = run(capsys, "solve", "--bc", "periodic", "-N", "5", "--ground",
                         "-c", "2e-62", "-L", "1e62")
    assert code == 3
    assert out == ""
    assert err.startswith("solver failure: Gaudin determinant inf")
    assert err.count("\n") == 1


def test_overflowing_kernel_denominator_exits_3(tmp_path, capsys):
    # c^2 overflowed in u^2 + c^2 and zeroed every Gaudin kernel: the solve
    # printed two overflow warnings and exited 0 with dk_dc [0, 0], a norm
    # 42 % below the scale law and "energy": Infinity, which is not JSON
    target = tmp_path / "solution.json"
    code, out, err = run(capsys, "solve", "--bc", "periodic", "-N", "2", "--ground",
                         "-c", "2e154", "-L", "1e-154", "-o", str(target))
    assert code == 3
    assert out == "" and not target.exists()
    assert err.startswith("solver failure: u^2 + c^2 overflows")
    assert "warning:" not in err


def test_huge_quantum_number_parity_prints_no_warning(capsys):
    # 2 I cast to int wrapped above 2^63: "invalid value encountered in cast"
    code, out, err = run(capsys, "solve", "--bc", "periodic", "-N", "1", "-I", "1e140",
                         "-c", "1", "-L", "1e-10")
    assert code == 0
    assert json.loads(out)["quantum_numbers"] == [1e140]
    assert "warning:" not in err


def test_cfi_rule_pair_check_exits_6(capsys, monkeypatch):
    import llfisher.fisher

    # a (4, 3) pair with no nodes left for refinement differs far above 1e-5
    monkeypatch.setattr(llfisher.fisher, "CFI_RULE_PAIR", (4, 3))
    monkeypatch.setattr(llfisher.fisher, "CFI_MAX_NODES", 0)
    state = ("--bc", "periodic", "-N", "3", "-I", "-1", "1", "2")
    code, out, err = run(capsys, "lmax", *state, "-c", "0.2", "--bracket", "5", "40")
    assert code == 6
    assert out == ""
    assert err.startswith("numerical check failed: CFI rules of orders 4 and 3 differ")
    assert "Traceback" not in err
    code, out, _ = run(
        capsys, "fisher", *state, "--axis", "L", "--start", "10", "--stop", "10",
        "--num", "1", "--fixed", "0.2",
    )
    assert code == 3
    assert ",error:NumericalHealthError: CFI rules of orders 4 and 3 differ" in out


def test_ring4_state_with_node_lines_is_a_failed_row(capsys):
    # psi~ of this type-I excitation vanishes on lines in the 3-D slice,
    # where the CFI integrand has no limit.  Bisection brings the estimate
    # down slowly (9.1e-4 after 10^6 nodes, 1.4e-4 after 4 x 10^6, 1.8e-5
    # after 1.6 x 10^7, 16 s), so within CFI_MAX_NODES it stays above 1e-5
    # and the point fails.  The single order-48 rule wrote a CFI 1.8e-4 off
    # as an ok row.  A sweep whose every point failed exits 3
    code, out, err = run(
        capsys, "fisher", "--bc", "periodic", "-N", "4", "--type1", "2", "--axis", "L",
        "--start", "10", "--stop", "10", "--num", "1", "--fixed", "0.2",
    )
    assert code == 3
    assert ",error:NumericalHealthError: CFI rules of orders 24 and 16 differ by " in out
    assert "Traceback" not in err


def test_lmax_non_finite_cfi_exits_6(capsys, monkeypatch):
    import llfisher.fisher

    monkeypatch.setattr(llfisher.fisher, "cfi", lambda spec, params: float("nan"))
    code, out, err = run(
        capsys, "lmax", "--bc", "hardwall", "-N", "2", "--ground",
        "-c", "0.2", "--bracket", "10", "150",
    )
    assert code == 6
    assert out == ""
    assert err.startswith("numerical check failed: CFI at L = ")


@pytest.mark.parametrize(
    "n,gamma,row",
    [("3", "1e-14", ",nan,nan,nan,,,error:NumericalHealthError: QFI pair sum cancelled to an "
      "error estimate of "),
     ("3", "5.6e-16", ",nan,nan,nan,,,error:NumericalHealthError: "),
     ("1", "1e-14", ",0,0,0,real,analytic,ok,")],
    ids=["ring3", "ring3-negative", "ring1"],
)
def test_negative_qfi_is_a_failed_row(capsys, n, gamma, row):
    # at gamma = 1e-14 the ring N = 3 pair sum cancels: the full-simplex sum
    # read a QFI of -0.00716, the x_1 = 0 slice sum 0.017361 against the
    # true 1/60, both written as ok rows, exit 0.  The error estimate of 2.8
    # rejects the second.  At 5.6e-16 the sum is rounding noise, so which
    # guard fires first (imaginary residue, or a negative value, which
    # Cauchy-Schwarz rules out) rests on the kernel's rounding: only the
    # class is pinned here, and test_fisher's
    # test_qfi_assembly_rejects_a_cauchy_schwarz_violation pins the
    # negative-value guard.  N = 1 has an exact QFI of 0, which stays ok.
    code, out, _ = run(
        capsys, "fisher", "--bc", "periodic", "-N", n, "--ground", "--axis", "c",
        "--start", gamma, "--stop", gamma, "--num", "1", "--fixed", "1",
    )
    assert row in out
    assert code == (3 if n == "3" else 0)


def test_sweep_row_names_the_collapsed_state(capsys):
    code, out, _ = run(
        capsys, "fisher", *BOX3, "--axis", "c", "--start", "1e-30", "--stop", "1e-30",
        "--num", "1", "--fixed", "1",
    )
    assert code == 3
    assert ",error:DegenerateStateError: coincident quasimomenta" in out


# ---------------------------------------------------------------------------
# runtime dependencies
# ---------------------------------------------------------------------------


def test_package_imports_numpy_only(tmp_path):
    # the runtime needs numpy alone, and no test oracle lives in the package:
    # with scipy, mpmath and hypothesis blocked (an import of one raises
    # ImportError), every command runs, the CFI quadrature route included
    script = """
import sys
for name in ("scipy", "mpmath", "hypothesis"):
    sys.modules[name] = None
import llfisher, llfisher.cli
out = sys.argv[1]
state = ["--bc", "hardwall", "-N", "2", "--ground"]
runs = [
    ["solve", *state, "-c", "1", "-L", "1", "-o", out + "/solve.json"],
    ["fisher", "--bc", "periodic", "-N", "3", "-I", "-1", "1", "2", "--axis", "L",
     "--start", "6", "--stop", "6", "--num", "1", "--fixed", "0.2", "-o", out + "/fisher.csv"],
    ["lmax", *state, "-c", "0.2", "--bracket", "10", "150", "-o", out + "/lmax.json"],
    ["imaging", *state, "-c", "0.2", "-L", "10", "--pixels", "4", "--sample", "200",
     "--seed", "1", "-o", out + "/imaging.csv", "--shots-out", out + "/shots.ndjson",
     "--mle-out", out + "/mle.json"],
]
print(*[llfisher.cli.main(argv) for argv in runs])
print(" ".join(m for m in ("scipy", "mpmath", "hypothesis", "pytest", "oracles")
               if sys.modules.get(m) is not None))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    codes, loaded = (done.stdout.splitlines() + [""])[:2]
    assert codes == "0 0 0 0", done.stderr
    assert loaded == ""
    assert {p.name for p in tmp_path.iterdir()} == {
        "solve.json", "fisher.csv", "lmax.json", "imaging.csv", "shots.ndjson", "mle.json"
    }
