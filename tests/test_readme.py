"""The README's library quickstart runs as printed."""

import re
from pathlib import Path

from obpb import profiles

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_code():
    """The fenced python block under the "## Library quickstart" heading."""
    section = README.read_text().split("\n## Library quickstart\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 1, "expected one python block in the quickstart"
    return blocks[0]


def test_library_quickstart_runs(monkeypatch, capsys):
    # coarse default grids keep the block to seconds; every call it makes
    # is the one the README prints
    monkeypatch.setattr(profiles, "BS_GRID", (24, 48))
    monkeypatch.setattr(profiles, "UE_GRID", (12, 24))
    namespace = {}
    exec(compile(quickstart_code(), str(README), "exec"), namespace)
    assert namespace["q_semi"].shape == (646, 4)
    assert namespace["r_h"].shape == (4, 4)
    assert capsys.readouterr().out.strip()
