#!/usr/bin/env python3
"""Record the reference values the output checks compare against.

Runs the fisher-sweep and imaging-mle invocations once and writes the QFI
and CFI values they print to ``perfbench/reference.json``.  Run it only on
a commit whose numbers are trusted (the file was recorded on the commit
that added the benchmark):

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from llfisher import cli  # noqa: E402


def main() -> int:
    ref = {"fisher": {}, "imaging_cfi": {}}
    work = HERE.parent / ".perfbench"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        invs = workloads.invocations("fisher-sweep", 0) + workloads.invocations("imaging-mle", 0)
        for inv in invs:
            with contextlib.redirect_stdout(sys.stderr):
                if cli.main(inv.full_argv(tmp)) != 0:
                    raise RuntimeError(f"{inv.key} failed")
            rows = workloads.read_rows(tmp / inv.output_name)
            if inv.argv[0] == "fisher":
                ref["fisher"][inv.key] = [
                    [float(r["value"]), float(r["qfi"]), float(r["cfi"])] for r in rows
                ]
            else:
                ref["imaging_cfi"][inv.key] = float(rows[0]["cfi"])
    finally:
        shutil.rmtree(tmp)
    ref["fisher"] = dict(sorted(ref["fisher"].items()))
    ref["imaging_cfi"] = dict(sorted(ref["imaging_cfi"].items()))
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
