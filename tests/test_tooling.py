"""The benchmark harness and the README's library example, run as shipped."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from jmg.povm import compression

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selfcheck_passes():
    # one tiny pass of every workload, traced and untraced, plus injected
    # faults; it writes only under the git-ignored .bench_out/
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_library_quickstart():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    g, r, small = ns["g"], ns["r"], ns["small"]
    non_edges = g.vertex_count * (g.vertex_count - 1) // 2 - len(g.edges)
    assert r.space_dim == g.vertex_count + non_edges
    assert small.space_dim <= g.vertex_count
    assert ns["report"].verdict == "infeasible_stalled"
    assert ns["pair"].verdict == "feasible" and ns["pair"].witness is not None
    povm, dilated = ns["povms"][0], ns["dilated"]
    assert dilated.enlarged_dim == 4
    for o in povm.outcomes:
        back = compression(dilated.isometry, dilated.pvm.elements[o])
        assert np.abs(back - povm.elements[o]).max() <= 1e-8
