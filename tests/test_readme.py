"""The README's Python example runs as written on the benchmark's seed-1 panel."""

import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)


def test_readme_example_imports_resolve():
    imports = [line for block in python_blocks() for line in block.splitlines() if line.startswith("from finnet")]
    assert imports, "the README has no `from finnet` import in a python block"
    for line in imports:
        exec(line, {})


def test_readme_example_runs_on_a_panel(tmp_path, monkeypatch, capsys):
    # The seed-1 panel's 2007 slice holds GRC and IRL, the countries the example seeds its cascade with.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from panel import core_size, write

    write(1, tmp_path)
    monkeypatch.chdir(tmp_path)
    (block,) = python_blocks()
    exec(compile(block, "README.md", "exec"), {})
    net_line, impact_line = capsys.readouterr().out.splitlines()
    edges, aspl = net_line.split()
    assert int(edges) > 0 and math.isfinite(float(aspl))
    n = core_size(2007)
    assert n == 58
    defaulted = float(impact_line) * n
    assert 2 <= round(defaulted) <= n and round(defaulted) / n == float(impact_line)
