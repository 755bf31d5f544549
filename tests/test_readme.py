"""README.md's library quick start runs, and gives the values its comments state."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The ```python block under "## Library quick start"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1]
    match = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert match, "no python block under the quick start heading"
    return match.group(1)


def test_library_quick_start():
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), str(README), "exec"), namespace)
    rep, fam, res = namespace["rep"], namespace["fam"], namespace["res"]
    assert (rep.best_lower, rep.best_upper, rep.exact_known) == (74, 75, 74)
    assert len(fam) == 27 and fam.validated
    assert (res.best_size, res.status) == (12, "optimal")
    assert out.getvalue() == "CERTIFIED n(2,5) = 12 [search]\n"
