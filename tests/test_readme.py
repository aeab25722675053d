"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert (tmp_path / "results.csv").stat().st_size > 0
