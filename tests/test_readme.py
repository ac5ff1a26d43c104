"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(markdown: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", markdown, flags=re.MULTILINE | re.DOTALL)


def test_python_examples_run(tmp_path, monkeypatch):
    blocks = python_blocks(README.read_text())
    assert blocks
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.txt").write_bytes(b"the cat sat on the mat; the rat sat on the cat. " * 40)
    # Later blocks may use names an earlier one imported.
    namespace: dict = {}
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)
