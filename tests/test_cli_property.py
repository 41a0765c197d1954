"""A derandomized property test of the command line on generated instances.

Grids stay within 6x6: ``analyze`` has no search budget yet, and its cycle
search grows exponentially with the pinned set on larger grids.
"""

import contextlib
import io
import os
import tempfile

import pytest

from bipsample import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPECS = ["swap", "curveball", "circle", "cycle:6", "cycle:8", "auto"]


@st.composite
def instance_texts(draw):
    """Instance files with zero to six rows and columns.  The degrees are
    a random matrix's margins or arbitrary values up to 8, which may have
    unequal sums or exceed the side length.  The mask is all free, all
    pinned to the matrix, or a mix of free cells, pins that agree with the
    matrix and arbitrary pins."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    matrix = [[draw(st.booleans()) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [sum(r) for r in matrix]
        cols = [sum(r[j] for r in matrix) for j in range(m)]
    else:
        rows = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
        cols = draw(st.lists(st.integers(0, 8), min_size=m, max_size=m))
    style = draw(st.sampled_from(["free", "pinned", "mixed"]))
    mask = []
    for row in matrix:
        cells = []
        for v in row:
            pin = str(int(v))
            if style == "mixed":
                pin = draw(st.sampled_from(["*", pin, "0", "1"]))
            cells.append("*" if style == "free" else pin)
        mask.append("".join(cells))
    return (f"rows: {n}\ncols: {m}\n"
            f"row_degrees: {' '.join(map(str, rows))}\n"
            f"col_degrees: {' '.join(map(str, cols))}\n"
            "mask:\n" + "".join(line + "\n" for line in mask))


def run(argv):
    """(exit code, stdout) of ``cli.main(argv)``, with stderr swallowed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@hypothesis.settings(derandomize=True, deadline=None, max_examples=100)
@hypothesis.given(instance_texts())
def test_cli_exits_with_a_documented_code_on_any_instance(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, _ = run(["analyze", path])
        assert code in (0, 1, 2)
        inst = cli.parse_instance(text) if code != 1 else None
        for spec in SPECS:
            for mh in ("on", "off"):
                code, out = run(["sample", path, "--chain", spec, "--mh", mh,
                                 "--steps", "20", "--gap", "3", "--count", "2"])
                assert code in (0, 1, 2, 64), (spec, mh)
                if code == 0:
                    samples = out.split("\n\n")
                    assert len(samples) == 2, (spec, mh)
                    for sample in samples:
                        cli.parse_realization(sample, inst)  # validates margins and mask
