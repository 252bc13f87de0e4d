"""The README's quick-start block runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["F"] >= namespace["f"] > 0.0
    assert namespace["report"].cfi == namespace["f"]
    assert namespace["n2"] == namespace["table"].solution.norm_sq
    assert namespace["shots"].shape == (2000, namespace["dist"].grid.n_bins)
    c_grid = namespace["c_grid"]
    assert c_grid[0] < namespace["c_hat"] < c_grid[-1]
