"""The README's Python example imports only names that finnet still has."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    imports = [line for block in blocks for line in block.splitlines() if line.startswith("from finnet")]
    assert imports, "the README has no `from finnet` import in a python block"
    for line in imports:
        exec(line, {})
