"""File formats, commands and exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import bipsample as bp
from bipsample import chains, cli, oracle
from bipsample.core import MoveSet
from streams import (
    CYCLE_SAMPLE_RUNS,
    GOLDEN_CYCLE_SAMPLE,
    GOLDEN_ENUMERATE,
    GOLDEN_SAMPLE,
    GOLDEN_WIDE_TRADE_SAMPLE,
    SAMPLE_RUNS,
    WIDE_TRADE_SAMPLE_RUNS,
    enumerate_digest,
    sample_digest,
)

FIG_SPLIT = """\
# four rows, one pinned non-edge per row except the last two share a column
rows: 4
cols: 3
row_degrees: 1 1 1 1
col_degrees: 2 1 1
mask:
0**
*0*
**0
*0*
"""

FREE_2X2 = """\
rows: 2
cols: 2
row_degrees: 1 1
col_degrees: 1 1
mask:
**
**
"""

REDUNDANT_2X2 = """\
rows: 2
cols: 2
row_degrees: 2 1
col_degrees: 2 1
mask:
1*
*0
"""

FOREST_3MATCH = """\
rows: 4
cols: 4
row_degrees: 2 2 2 2
col_degrees: 2 2 2 2
mask:
0***
*0**
**0*
****
"""


DENSE_14X14_F70 = """\
rows: 14
cols: 14
row_degrees: 8 6 8 4 7 6 9 11 8 7 8 6 7 9
col_degrees: 9 5 8 7 9 9 6 9 6 12 5 7 5 7
mask:
***0*1*011*1**
1***1****0****
**1*11*1******
*00001***10001
***1****1**00*
****1*****100*
**1***********
10*11*********
1*1***1**1**00
1*00*1**0*****
1*1*******0*10
0*0*10*10***0*
*0********001*
010*1***1***10
"""


ONE_ROW = """\
rows: 1
cols: 3
row_degrees: 2
col_degrees: 1 1 0
mask:
***
"""

CHAIN_SPECS = ["swap", "curveball", "circle", "cycle:6", "cycle:8", "auto"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def subprocess_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def staircase(n):
    """Row i may use only columns i and i+1, the last row only column 0;
    every degree is 1, so the only realization is row i -> column i+1 and
    the last row -> column 0, and an augmenting path visits every row."""
    rows = []
    for i in range(n):
        allowed = {0} if i == n - 1 else {i, i + 1}
        rows.append("".join("*" if j in allowed else "0" for j in range(n)))
    ones = " ".join(["1"] * n)
    return (f"rows: {n}\ncols: {n}\nrow_degrees: {ones}\ncol_degrees: {ones}\n"
            "mask:\n" + "\n".join(rows) + "\n")


def test_instance_round_trip():
    inst = cli.parse_instance(FIG_SPLIT)
    assert inst.degrees.row_degrees == (1, 1, 1, 1)
    assert inst.fixed.forced_non_edges == {(0, 0), (1, 1), (2, 2), (3, 1)}
    assert cli.parse_instance(cli.format_instance(inst)) == inst


def test_realization_round_trip():
    inst = cli.parse_instance(FREE_2X2)
    g = bp.initial_realization(inst)
    text = cli.format_realization(g)
    assert cli.parse_realization(text, inst) == g


def test_parse_reports_line_and_column():
    bad = FREE_2X2.replace("**\n**", "*x\n**")
    with pytest.raises(cli.ParseError) as err:
        cli.parse_instance(bad)
    assert err.value.line == 6 and err.value.col == 2


def test_parse_errors():
    with pytest.raises(cli.ParseError):
        cli.parse_instance("rows: 2\ncols: 2\nrow_degrees: 1 1\nmask:\n**\n**\n")
    with pytest.raises(cli.ParseError):
        cli.parse_instance(FREE_2X2.replace("row_degrees: 1 1", "row_degrees: 1"))
    with pytest.raises(cli.ParseError):
        cli.parse_instance(FREE_2X2 + "\nextra\n")
    with pytest.raises(cli.ParseError):
        cli.parse_instance(FREE_2X2.replace("row_degrees: 1 1", "row_degrees: 1 x"))
    # rows: and cols: hold exactly one integer each
    for key in ("rows", "cols"):
        with pytest.raises(cli.ParseError) as err:
            cli.parse_instance(FREE_2X2.replace(f"{key}: 2", f"{key}: 2 7"))
        assert err.value.line == 1 + (key == "cols")


def _mask_error_reference(text):
    """The first mask-line error ``parse_instance`` raises, found the way
    it was before the C-level check: cell by cell, in reading order."""
    lines = [(k, line.strip()) for k, line in enumerate(text.splitlines(), start=1)
             if line.strip() and not line.strip().startswith("#")]
    start = next(t for t, (_, line) in enumerate(lines) if line == "mask:") + 1
    nc = int(lines[1][1].split()[1])
    for lineno, content in lines[start:]:
        if len(content) != nc:
            return ("mask line has", lineno)
        for col, ch in enumerate(content, start=1):
            if ch not in "01*":
                return (f"bad mask character {ch!r}", lineno, col)
    return None


@pytest.mark.parametrize("ch", ["x", "2", "?", "\u00e9", "\x00", "\x01", "\x02"])
@pytest.mark.parametrize("col", [1, 6, 11])
def test_parse_names_a_bad_mask_character_at_its_column(ch, col):
    # first, middle and last of 11 columns; the control characters are the
    # cell values the mask characters translate to
    rows = ["*0*1*0*1*0*"] * 3
    rows[1] = rows[1][:col - 1] + ch + rows[1][col:]
    rows[2] = "1" * 10 + ch  # a later bad line is not the one reported
    text = ("rows: 3\ncols: 11\nrow_degrees: 1 1 1\n"
            "col_degrees: 1 1 1 0 0 0 0 0 0 0 0\nmask:\n" + "\n".join(rows) + "\n")
    with pytest.raises(cli.ParseError) as err:
        cli.parse_instance(text)
    assert (err.value.message, err.value.line, err.value.col) == (
        f"bad mask character {ch!r}", 7, col)
    assert _mask_error_reference(text) == (err.value.message, 7, col)


def test_parse_mask_rows_read_as_before():
    # every committed instance: the same mask as a cell-by-cell read
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    folder = os.path.join(root, "bench", "instances")
    names = sorted(f for f in os.listdir(folder) if f.endswith(".txt"))
    for name in names:
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            text = fh.read()
        rows = text.split("mask:\n", 1)[1].split()
        want = tuple(tuple(cli._MASK_CHARS[ch] for ch in row) for row in rows)
        inst = cli.parse_instance(text)
        assert inst.fixed.mask == want, name
        # and written back as the same characters
        assert cli.format_instance(inst).split("mask:\n", 1)[1].split() == rows, name
    assert len(names) == 104


def _realization_error_reference(text, nc):
    """The first line error ``parse_realization`` raises, found the way it
    was before the C-level check: cell by cell, in reading order."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        content = line.strip()
        if not content or content.startswith("#"):
            continue
        if len(content) != nc:
            return (f"line has {len(content)} cells, expected {nc}", lineno, None)
        for col, ch in enumerate(content, start=1):
            if ch not in "01":
                return (f"bad cell character {ch!r}", lineno, col)
    return None


@pytest.mark.parametrize("ch", ["x", "2", "*", "\u00e9", "\x00", "\x01"])
@pytest.mark.parametrize("col", [1, 6, 11])
def test_parse_names_a_bad_realization_character_at_its_column(ch, col):
    # first, middle and last of 11 columns; the control characters are the
    # cell values the digits translate to
    inst = cli.parse_instance(
        "rows: 3\ncols: 11\nrow_degrees: 5 5 5\n"
        "col_degrees: 2 1 2 1 2 1 2 1 2 1 0\nmask:\n" + "***********\n" * 3)
    rows = ["10101010100"] * 3
    rows[1] = rows[1][:col - 1] + ch + rows[1][col:]
    rows[2] = "1" * 10 + ch  # a later bad line is not the one reported
    text = "# a sample\n" + "\n".join(rows) + "\n"
    with pytest.raises(cli.ParseError) as err:
        cli.parse_realization(text, inst)
    got = (err.value.message, err.value.line, err.value.col)
    assert got == (f"bad cell character {ch!r}", 3, col)
    assert _realization_error_reference(text, 11) == got
    short = text.replace(rows[1], "1" * 10)
    with pytest.raises(cli.ParseError) as err:
        cli.parse_realization(short, inst)
    got = (err.value.message, err.value.line, err.value.col)
    assert got == ("line has 10 cells, expected 11", 3, None)
    assert _realization_error_reference(short, 11) == got


def test_comments_and_blank_lines_ignored():
    noisy = "\n# header comment\n" + FREE_2X2.replace("mask:", "mask:\n# grid\n")
    inst = cli.parse_instance(noisy)
    assert not inst.fixed.cells


def test_analyze_free_instance(tmp_path, capsys):
    path = write(tmp_path, "a.txt", FREE_2X2)
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "realizable: yes" in out
    assert "recommended: trades" in out


def test_analyze_split_instance(tmp_path, capsys):
    path = write(tmp_path, "b.txt", FIG_SPLIT)
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "recommended: trades+circle" in out


def test_analyze_fully_redundant_mask(tmp_path, capsys):
    path = write(tmp_path, "c.txt", REDUNDANT_2X2)
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "|F| = 0; plain Curveball applies" in out
    assert "|F*|: 2" in out


def test_analyze_infeasible(tmp_path, capsys):
    bad = FREE_2X2.replace("row_degrees: 1 1", "row_degrees: 2 2")
    path = write(tmp_path, "d.txt", bad)
    assert cli.main(["analyze", path]) == 2
    out = capsys.readouterr().out
    assert "realizable: no" in out


def test_analyze_dense_14x14_decides_every_cycle_length(tmp_path, capsys):
    # |F| = 70 holds every even cycle length from 8 to 26 but no 28-cycle
    path = write(tmp_path, "dense.txt", DENSE_14X14_F70)
    assert cli.main(["analyze", path]) == 0
    assert capsys.readouterr().out == (
        "realizable: yes\n"
        "feasible: yes\n"
        "static cells: 0 (edges=0, non-edges=0)\n"
        "|F|: 70\n"
        "|F*|: 0\n"
        "has 3-matching: yes\n"
        "has 8-cycle: yes\n"
        "forest: no\n"
        "min excluded ell: 14\n"
        "recommended: cycle:26\n"
    )


BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


def test_analyze_verdicts_recorded_by_the_benchmark(capsys):
    # exit code and stdout of every analyze instance the benchmark checks,
    # 36 of them with static cells
    with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["analyze"]
    assert len(recorded) == 100
    with_static = 0
    for name, want in sorted(recorded.items()):
        path = os.path.join(BENCH_DIR, "instances", f"{name}.txt")
        assert cli.main(["analyze", path]) == want["code"], name
        out = capsys.readouterr().out
        assert out == want["stdout"], name
        with_static += "static cells: 0 " not in out
    assert with_static == 36


# sha256 over "<file> <exit code>\n<stdout>" of ``analyze --no-reduce`` on
# every committed instance, in file-name order.
NO_REDUCE_DIGEST = "18401fcdae249864ffc1f745814506fd94dbe27b6195b66d15779849b2d016fd"


def test_analyze_no_reduce_verdicts_are_pinned(capsys):
    # the detectors see the whole fixed set here, not the working part
    names = sorted(n for n in os.listdir(os.path.join(BENCH_DIR, "instances"))
                   if n.endswith(".txt"))
    assert len(names) == 104
    digest = hashlib.sha256()
    for name in names:
        code = cli.main(["analyze", "--no-reduce", os.path.join(BENCH_DIR, "instances", name)])
        digest.update(f"{name} {code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == NO_REDUCE_DIGEST


def recommended_chain(analyze_stdout):
    """The chain an ``analyze`` output recommends, or None without a
    recommendation or with a fallback one."""
    for line in analyze_stdout.splitlines():
        if line.startswith("recommended: ") and "(fallback" not in line:
            return line[len("recommended: "):]
    return None


def sample_output(capsys, path, chain):
    """(exit code, stdout, stderr) of a short ``sample`` run."""
    code = cli.main(["sample", path, "--chain", chain, "--steps", "30",
                     "--seed", "4"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_takes_the_chain_analyze_recommends(capsys):
    # every name analyze prints as its recommendation is a --chain name that
    # runs the chain --chain auto picks
    chains_seen = set()
    for name in sorted(os.listdir(os.path.join(BENCH_DIR, "instances"))):
        if not name.endswith(".txt"):
            continue
        path = os.path.join(BENCH_DIR, "instances", name)
        cli.main(["analyze", path])
        chain = recommended_chain(capsys.readouterr().out)
        if chain is None:
            continue
        auto = sample_output(capsys, path, "auto")
        assert auto[0] == 0, name
        assert sample_output(capsys, path, chain) == auto, name
        chains_seen.add(chain)
    assert {"trades", "trades+circle"} < chains_seen


def test_chain_aliases_name_the_printed_chains(tmp_path, capsys):
    path = write(tmp_path, "a.txt", FOREST_3MATCH)
    for alias, name in (("curveball", "trades"), ("circle", "trades+circle")):
        assert sample_output(capsys, path, alias) == sample_output(capsys, path, name)


def readme_blocks():
    """(instance file text, commented ``analyze`` output lines) from the
    README: the instance-file block and the lines after ``bipsample analyze
    inst.txt`` in the CLI block."""
    with open(os.path.join(os.path.dirname(BENCH_DIR), "README.md"),
              encoding="utf-8") as fh:
        text = fh.read()
    instance = text.split("## Instance files\n\n```\n", 1)[1].split("```", 1)[0]
    cli_block = text.split("bipsample analyze inst.txt\n", 1)[1]
    output = []
    for line in cli_block.splitlines():
        if not line.startswith("# "):
            break
        output.append(line[len("# "):])
    return instance, output


def test_readme_analyze_example_is_current(tmp_path, capsys):
    instance, output = readme_blocks()
    path = write(tmp_path, "inst.txt", instance)
    assert cli.main(["analyze", path]) == 0
    assert capsys.readouterr().out.splitlines() == output
    chain = recommended_chain("\n".join(output))
    assert chain is not None
    code, out, err = sample_output(capsys, path, chain)
    assert code == 0
    assert err == f"chain: {chain}\n"


def test_analyze_parse_error_exit(tmp_path, capsys):
    path = write(tmp_path, "e.txt", "rows: nope\n")
    assert cli.main(["analyze", path]) == 1
    assert "bad" in capsys.readouterr().err


def one_line_error(capsys):
    """The one line a failed command printed on stderr."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    return err


def test_analyze_missing_file_exit(tmp_path, capsys):
    path = str(tmp_path / "missing.txt")
    assert cli.main(["analyze", path]) == cli.EXIT_PARSE
    assert one_line_error(capsys).startswith(f"{path}: cannot read")


def test_analyze_directory_path_exit(tmp_path, capsys):
    assert cli.main(["analyze", str(tmp_path)]) == cli.EXIT_PARSE
    assert one_line_error(capsys).startswith(f"{tmp_path}: cannot read")


def test_analyze_non_utf8_file_exit(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(FREE_2X2.encode().replace(b"**", b"*\xff", 1))
    assert cli.main(["analyze", str(path)]) == cli.EXIT_PARSE
    assert one_line_error(capsys).startswith(f"{path}: cannot read")


def test_analyze_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    plain = write(tmp_path, "plain.txt", FREE_2X2)
    assert cli.main(["analyze", plain]) == 0
    want = capsys.readouterr()
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + FREE_2X2.encode())
    assert cli.main(["analyze", str(path)]) == 0
    assert capsys.readouterr() == want


def test_sample_out_that_cannot_be_written_exit(tmp_path, capsys):
    path = write(tmp_path, "m.txt", FREE_2X2)
    taken = write(tmp_path, "taken", "")
    args = ["sample", path, "--steps", "5", "--out"]
    assert cli.main([*args, taken]) == cli.EXIT_USAGE
    assert f"--out {taken}: " in one_line_error(capsys)
    # a directory where the first sample file goes
    out = tmp_path / "out"
    (out / "sample_0000.txt").mkdir(parents=True)
    assert cli.main([*args, str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"bipsample: error: cannot write --out {out}: ")


def test_sample_reproducible_and_valid(tmp_path, capsys):
    path = write(tmp_path, "f.txt", FIG_SPLIT)
    args = ["sample", path, "--chain", "circle", "--steps", "200", "--seed", "9",
            "--count", "3"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    inst = cli.parse_instance(FIG_SPLIT)
    blocks = [b for b in first.split("\n\n") if b.strip()]
    assert len(blocks) == 3
    for block in blocks:
        cli.parse_realization(block, inst)  # validates degrees and mask


def test_sample_rejects_a_negative_seed(tmp_path, capsys):
    # random.Random(-s) draws the stream of Random(s): --seed -1 --count 3
    # would write samples 0 and 2 byte for byte the same
    path = write(tmp_path, "h.txt", README_4X4)
    assert cli.main(["sample", path, "--seed", "-1", "--count", "3"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --seed: value must be >= 0" in err
    assert cli.main(["sample", path, "--seed", "0", "--steps", "20"]) == 0


def test_sample_bytes_are_pinned():
    assert sample_digest(SAMPLE_RUNS) == GOLDEN_SAMPLE


def test_wide_trade_sample_bytes_are_pinned():
    assert sample_digest(WIDE_TRADE_SAMPLE_RUNS) == GOLDEN_WIDE_TRADE_SAMPLE


def test_cycle_sample_bytes_are_pinned():
    assert sample_digest(CYCLE_SAMPLE_RUNS) == GOLDEN_CYCLE_SAMPLE


def test_enumerate_list_bytes_are_pinned():
    assert enumerate_digest() == GOLDEN_ENUMERATE


def test_sample_auto_selects_circle_on_forest_mask(tmp_path, capsys):
    path = write(tmp_path, "g.txt", FOREST_3MATCH)
    assert cli.main(["sample", path, "--steps", "50", "--seed", "1"]) == 0
    err = capsys.readouterr().err
    assert "chain: trades+circle" in err


def test_sample_rejects_zero_steps(tmp_path, capsys):
    path = write(tmp_path, "h.txt", FREE_2X2)
    assert cli.main(["sample", path, "--steps", "0"]) == cli.EXIT_USAGE
    assert cli.main(["sample", path, "--chain", "cycle:5"]) == cli.EXIT_USAGE
    capsys.readouterr()
    # L is ASCII digits only, though int() would read each of these
    for spec in ("cycle:1_0", "cycle: 8", "cycle:+8", "cycle:\uff18"):
        assert cli.main(["sample", path, "--chain", spec]) == cli.EXIT_USAGE
        assert "cycle:L needs an integer L" in capsys.readouterr().err
    assert cli.main(["sample", path, "--steps", "5", "--gap", "10"]) == cli.EXIT_USAGE


def test_sample_infeasible_mask(tmp_path, capsys):
    text = FREE_2X2.replace("**\n**", "00\n**")
    path = write(tmp_path, "i.txt", text)
    assert cli.main(["sample", path, "--steps", "10"]) == 2


@pytest.mark.parametrize("chain", ["swap", "auto"])
def test_sample_unrealizable_sequence_says_so(tmp_path, capsys, chain):
    # every cell is free, so the fixed cells cannot be what rules it out
    text = FREE_2X2.replace("row_degrees: 1 1", "row_degrees: 3 0").replace(
        "col_degrees: 1 1", "col_degrees: 2 1"
    )
    path = write(tmp_path, "u.txt", text)
    assert cli.main(["sample", path, "--chain", chain]) == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "infeasible: degree sequence has no realization\n" in err
    assert "fixed cells" not in err


@pytest.mark.parametrize("to_dir", [False, True])
def test_sample_writes_each_sample_before_the_next_chain_runs(
    tmp_path, capsys, monkeypatch, to_dir
):
    # memory stays flat in --count: sample c is out before chain c + 1 starts
    path = write(tmp_path, "h.txt", README_4X4)
    out = tmp_path / "samples"
    args = ["sample", path, "--steps", "30", "--count", "3"]
    args += ["--out", str(out)] if to_dir else []
    assert cli.main(args) == 0
    if to_dir:
        texts = [f.read_text() for f in sorted(out.iterdir())]
        shutil.rmtree(out)
    else:
        texts = capsys.readouterr().out.split("\n\n")
        texts = [t + "\n" for t in texts[:-1]] + texts[-1:]
    assert len(texts) == 3
    written = []
    restart = chains.Chain.restart

    def spy(chain, seed):
        if to_dir:
            written.append([f.read_text() for f in sorted(out.iterdir())])
        else:
            written.append(capsys.readouterr().out)
        restart(chain, seed)

    monkeypatch.setattr(chains.Chain, "restart", spy)
    assert cli.main(args) == 0
    if to_dir:
        assert written == [texts[:1], texts[:2]]
    else:
        assert written == [texts[0], "\n" + texts[1]]
        assert capsys.readouterr().out == "\n" + texts[2]


def test_sample_to_directory(tmp_path, capsys):
    path = write(tmp_path, "j.txt", FREE_2X2)
    out = tmp_path / "samples"
    assert cli.main(["sample", path, "--steps", "25", "--count", "2",
                     "--out", str(out)]) == 0
    files = sorted(out.iterdir())
    assert [f.name for f in files] == ["sample_0000.txt", "sample_0001.txt"]
    inst = cli.parse_instance(FREE_2X2)
    for f in files:
        cli.parse_realization(f.read_text(), inst)


def test_enumerate_counts(tmp_path, capsys):
    path = write(tmp_path, "k.txt", FREE_2X2)
    assert cli.main(["enumerate", path]) == 0
    assert capsys.readouterr().out.strip() == "2"
    path = write(tmp_path, "l.txt", FIG_SPLIT)
    assert cli.main(["enumerate", path, "--list"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "3"
    inst = cli.parse_instance(FIG_SPLIT)
    blocks = [b for b in out.split("\n", 1)[1].split("\n\n") if b.strip()]
    assert len(blocks) == 3
    for block in blocks:
        cli.parse_realization(block, inst)
    # the text of each enumerated Realization, in canonical order
    states = bp.enumerate_realizations(inst)
    assert out == "3\n" + "\n".join(map(cli.format_realization, states))


def test_enumerate_too_large(tmp_path, capsys):
    text = (
        "rows: 7\ncols: 6\nrow_degrees: 1 1 1 1 1 1 1\n"
        "col_degrees: 1 1 1 1 1 2\nmask:\n" + "\n".join("******" for _ in range(7))
    )
    path = write(tmp_path, "m.txt", text)
    assert cli.main(["enumerate", path]) == 4


class _ReaderLeftAfterFirstLine(io.StringIO):
    """A stdout whose reader leaves once it has a line: every write after
    the one that brought the first line raises ``BrokenPipeError``."""

    def write(self, text):
        if "\n" in self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


FREE_4X4 = "rows: 4\ncols: 4\nrow_degrees: 2 2 2 2\ncol_degrees: 2 2 2 2\nmask:\n" + "****\n" * 4


def run_to_a_reader_that_leaves(argv):
    """``cli.main(argv)`` writing to a ``_ReaderLeftAfterFirstLine``: the
    exit code, the stdout that got through and the stderr."""
    out, err = _ReaderLeftAfterFirstLine(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_a_reader_that_leaves_stops_sample_with_exit_141(tmp_path, monkeypatch):
    # the first sample is out; the second chain stops at its write and no
    # third one runs
    restarts = []
    restart = chains.Chain.restart
    monkeypatch.setattr(chains.Chain, "restart",
                        lambda chain, seed: restarts.append(seed) or restart(chain, seed))
    path = write(tmp_path, "p.txt", README_4X4)
    code, out, err = run_to_a_reader_that_leaves(
        ["sample", path, "--steps", "5", "--count", "20000"])
    assert code == cli.EXIT_PIPE == 141
    assert out.count("\n") == 4 and restarts == [1]
    assert err == "chain: trades+circle\n"


def test_a_reader_that_leaves_stops_enumerate_list_with_exit_141(tmp_path):
    path = write(tmp_path, "q.txt", FREE_4X4)
    assert run_to_a_reader_that_leaves(["enumerate", "--list", path]) == (cli.EXIT_PIPE, "90\n", "")


@pytest.mark.parametrize("left", ["after its first line", "before the first write"])
def test_a_closed_pipe_exits_141_with_nothing_more_on_stderr(tmp_path, left):
    """In a process of its own, with stdout block-buffered, nothing but
    the ``chain:`` line reaches stderr: not when the reader leaves after a
    line, and not when the first write to fail is the flush of the whole
    output at exit, which leaves it in the buffer for the interpreter's
    final flush."""
    path = write(tmp_path, "p.txt", README_4X4)
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    count = "20000" if left == "after its first line" else "3"
    argv = [sys.executable, "-m", "bipsample.cli", "sample", path, "--chain", "trades",
            "--steps", "5", "--count", count]
    if left == "after its first line":
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
        proc.stderr.close()
    else:
        read, written = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(argv, stdout=written, stderr=subprocess.PIPE, env=env,
                                  timeout=120)
        finally:
            os.close(written)
        code, err = done.returncode, done.stderr
    assert (code, err) == (cli.EXIT_PIPE, b"chain: trades\n")


def test_verify_quick_pass(tmp_path, capsys):
    code = cli.main(["verify", "--max-rows", "2", "--max-cols", "2",
                     "--random", "5", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    swap_lengths = MoveSet.swap_lengths

    def crippled(move_set):
        if move_set == MoveSet.swaps_up_to(6):
            return frozenset({4})
        return swap_lengths(move_set)

    monkeypatch.setattr(MoveSet, "swap_lengths", crippled)
    code = cli.main(["verify", "--max-rows", "3", "--max-cols", "3",
                     "--random", "0", "--quiet"])
    captured = capsys.readouterr()
    assert code == 3
    assert "result: FAIL" in captured.out
    assert "witness instance:" in captured.err
    assert "mask:" in captured.err


def test_verify_static_cell_failure_prints_a_witness(monkeypatch, capsys):
    # a reference that matches no static set fails static-cells-pruned on
    # the first sequence, whose free instance is the witness
    monkeypatch.setattr(oracle, "_static_set_reference", lambda seq: None)
    code = cli.main(["verify", "--max-rows", "2", "--max-cols", "2",
                     "--random", "0", "--quiet"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VERIFY_FAIL
    assert "result: FAIL (static-cells-pruned)" in captured.out
    assert captured.err == (
        "witness instance:\nrows: 1\ncols: 1\nrow_degrees: 1\n"
        "col_degrees: 1\nmask:\n*\n"
    )


def test_verify_json_reports_counts_and_seconds(capsys):
    argv = ["verify", "--max-rows", "2", "--max-cols", "3", "--random", "5"]
    assert cli.main(argv + ["--quiet"]) == 0
    text = capsys.readouterr().out
    assert cli.main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    got = json.loads(out)
    assert sorted(got) == ["checks_run", "counts", "elapsed", "failures",
                           "info_lines", "passed", "seconds"]
    assert got["passed"] is True and got["failures"] == []
    assert got["checks_run"] == sum(got["counts"].values())
    assert f"checks run: {got['checks_run']}\n" in text
    for name, count in got["counts"].items():
        assert f"  {name}: {count}\n" in text
    # each recorded check is timed from the previous one, all inside the
    # sweep's elapsed time
    assert got["seconds"].keys() == got["counts"].keys()
    assert all(seconds >= 0 for seconds in got["seconds"].values())
    assert sum(got["seconds"].values()) <= got["elapsed"]


def test_verify_json_on_failure(monkeypatch, capsys):
    monkeypatch.setattr(MoveSet, "swap_lengths", lambda move_set: frozenset({4}))
    code = cli.main(["verify", "--max-rows", "3", "--max-cols", "3",
                     "--random", "0", "--json"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VERIFY_FAIL
    got = json.loads(captured.out)
    assert got["passed"] is False
    assert "swaps46-connected" in {name for name, _ in got["failures"]}
    assert "witness instance:" in captured.err


def test_verify_counts_do_not_depend_on_asserts():
    # every guard of the sweep is a check, so -O strips none of its verdicts
    probe = ("import json; from bipsample import oracle; "
             "r = oracle.run_verification(3, 3, 5, seed=20240801, quiet=True); "
             "print(json.dumps([r.checks_run, r.counts, r.passed]))")

    def run(*flags):
        done = subprocess.run([sys.executable, *flags, "-c", probe],
                              capture_output=True, text=True, check=True,
                              env=subprocess_env(), timeout=120)
        return json.loads(done.stdout)

    plain, optimized = run(), run("-O")
    assert plain == optimized
    assert plain[0] == 23789 and plain[2] is True


def test_verify_guard(capsys):
    assert cli.main(["verify", "--max-rows", "7", "--max-cols", "6"]) == 4
    assert capsys.readouterr().err == (
        "too large: a 7x6 pool exceeds the enumeration guard of 36 cells\n"
    )


def test_usage_error_exit_code(capsys):
    assert cli.main(["sample"]) == cli.EXIT_USAGE
    assert cli.main(["bogus"]) == cli.EXIT_USAGE
    assert cli.main(["verify", "--random", "-3"]) == cli.EXIT_USAGE
    assert "--random: value must be >= 0" in capsys.readouterr().err
    # --seed -5 would check the pool of --seed 5
    assert cli.main(["verify", "--seed", "-5"]) == cli.EXIT_USAGE
    assert "--seed: value must be >= 0" in capsys.readouterr().err


def test_repeated_main_calls_keep_their_own_results(tmp_path, capsys, monkeypatch):
    # usage errors, help and option defaults between valid commands in one
    # process: every call keeps the exit code, stdout and stderr it has on
    # its own, with a parser of its own
    path = write(tmp_path, "x.txt", FIG_SPLIT)
    calls = [
        ["sample", path, "--steps", "0"],
        ["analyze", path, "--no-reduce"],
        ["analyze", path],
        ["bogus"],
        ["sample", "-h"],
        ["sample", path, "--chain", "circle", "--steps", "40", "--seed", "3"],
        ["sample", path, "--chain", "cycle:7"],
        ["sample", path, "--steps", "5", "--gap", "6"],
        ["enumerate", path, "--list"],
    ]
    alone = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        alone.append((code, out, err))
    assert [code for code, _, _ in alone] == [64, 0, 0, 64, 0, 0, 64, 64, 0]
    for code, out, err in alone:
        if code:
            assert "error:" in err and not out
        else:
            assert out and "error" not in err
    static_lines = [
        [line for line in alone[k][1].splitlines() if line.startswith("static cells:")]
        for k in (1, 2)
    ]
    assert static_lines[0] == ["static cells: skipped (--no-reduce)"]
    assert static_lines[1] != static_lines[0]
    for order in (calls[::-1], calls[1::2] + calls[::2]):
        for argv in order:
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert (code, out, err) == alone[calls.index(argv)], argv


def test_main_builds_its_parser_at_most_once(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "x.txt", FIG_SPLIT)
    build = cli.build_parser
    built = []

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    for argv in (["analyze", path], ["bogus"], ["sample", "-h"],
                 ["sample", path, "--steps", "3"], ["analyze", path]):
        cli.main(argv)
    capsys.readouterr()
    assert len(built) == 1
    # and not at import, which every command's start would pay for
    probe = "from bipsample import cli; print(cli._parser)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=subprocess_env())
    assert done.stdout.strip() == "None"


def test_sample_help_and_usage_error_name_every_chain(tmp_path, capsys):
    specs = ["auto", *cli._CHAIN_NAMES, "cycle:L"]
    assert cli.main(["sample", "-h"]) == 0
    out, err = capsys.readouterr()
    assert not err
    assert set(specs) <= {word.strip(",;()") for word in out.split()}
    path = write(tmp_path, "x.txt", FIG_SPLIT)
    assert cli.main(["sample", path, "--chain", "bogus"]) == 64
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --chain: chain must be {cli._CHAIN_SPECS}\n")
    assert set(specs) <= {word.strip(",;()") for word in cli._CHAIN_SPECS.split()}


def test_every_sample_and_verify_option_has_help():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command in ("sample", "verify"):
        for action in commands[command]._actions:
            if action.option_strings:
                assert action.help, (command, action.option_strings)


def test_sample_reproducible_across_processes(tmp_path):
    path = write(tmp_path, "x.txt", FIG_SPLIT)

    def run():
        return subprocess.run(
            [sys.executable, "-m", "bipsample.cli", "sample", path,
             "--chain", "circle", "--steps", "150", "--seed", "4", "--count", "2"],
            capture_output=True, check=True, env=subprocess_env(),
        ).stdout

    assert run() == run()


def test_import_loads_neither_scipy_nor_numpy():
    probe = ("import sys, bipsample, bipsample.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'numpy')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=subprocess_env())
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("spec", CHAIN_SPECS)
def test_sample_on_one_row_stays_on_the_only_realization(tmp_path, capsys, spec):
    path = write(tmp_path, "one.txt", ONE_ROW)
    assert cli.main(["sample", path, "--chain", spec, "--steps", "30",
                     "--count", "2", "--seed", "3"]) == 0
    assert capsys.readouterr().out == "110\n\n110\n"


def test_staircase_600_builds_and_samples_without_recursion(tmp_path, capsys):
    n = 600
    text = staircase(n)
    g = bp.initial_realization(cli.parse_instance(text))
    assert g.rows == tuple(frozenset({(i + 1) % n}) for i in range(n))
    path = write(tmp_path, "stair.txt", text)
    assert cli.main(["sample", path, "--chain", "cycle:8", "--steps", "100"]) == 0
    assert capsys.readouterr().out == cli.format_realization(g)


def fan(k):
    """All degrees 0; row 0 pinned in every column, and cells (i, i) and
    (i, i+1 mod k) pinned too, so F holds every even cycle length up to
    2k: one walk per length, as deep as the length, in the cycle search."""
    rows = []
    for i in range(k):
        pinned = set(range(k)) if i == 0 else {i, (i + 1) % k}
        rows.append("".join("0" if j in pinned else "*" for j in range(k)))
    zeros = " ".join(["0"] * k)
    return (f"rows: {k}\ncols: {k}\nrow_degrees: {zeros}\ncol_degrees: {zeros}\n"
            "mask:\n" + "\n".join(rows) + "\n")


def test_fan_520_analyzes_and_samples_past_the_recursion_limit(tmp_path, capsys):
    # the longest cycle, 1040 vertices, is deeper than the default
    # recursion limit; a recursive search raised RecursionError here
    k = 520
    path = write(tmp_path, "fan.txt", fan(k))
    assert cli.main(["analyze", "--no-reduce", path]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"recommended: cycle:{2 * k} (fallback: ")
    assert cli.main(["sample", "--chain", "auto", "--no-reduce", "--steps", "10", path]) == 0
    assert capsys.readouterr().out == ("0" * k + "\n") * k


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("gap", [1, 3, 20])
@pytest.mark.parametrize("spec", CHAIN_SPECS)
def test_sample_writes_the_last_state_run_keeps(tmp_path, capsys, spec, gap, count):
    # 20 steps at gap 3 keep step 18: the last two steps are never written
    path = write(tmp_path, "k.txt", FOREST_3MATCH)
    assert cli.main(["sample", path, "--chain", spec, "--steps", "20",
                     "--gap", str(gap), "--count", str(count), "--seed", "5"]) == 0
    inst = cli.parse_instance(FOREST_3MATCH)
    move_set = cli._chain_spec(spec) or cli._pipeline(inst, True)[-1]
    expected = [
        cli.format_realization(
            chains.run(inst, chains.ChainConfig(move_set, 20, 5 + c, gap))[-1]
        )
        for c in range(count)
    ]
    assert capsys.readouterr().out == "\n".join(expected)


DEGENERATE = {
    "1x1": "rows: 1\ncols: 1\nrow_degrees: 1\ncol_degrees: 1\nmask:\n*\n",
    "1x5": "rows: 1\ncols: 5\nrow_degrees: 3\ncol_degrees: 1 0 1 1 0\nmask:\n*****\n",
    "5x1": "rows: 5\ncols: 1\nrow_degrees: 1 0 1 1 0\ncol_degrees: 3\nmask:\n*\n*\n*\n*\n*\n",
    "2x1": "rows: 2\ncols: 1\nrow_degrees: 1 0\ncol_degrees: 1\nmask:\n*\n*\n",
    "zero_degree_row": (
        "rows: 3\ncols: 3\nrow_degrees: 2 0 1\ncol_degrees: 1 1 1\n"
        "mask:\n***\n***\n***\n"
    ),
    "full_row": (
        "rows: 3\ncols: 4\nrow_degrees: 4 1 2\ncol_degrees: 2 2 2 1\n"
        "mask:\n****\n****\n****\n"
    ),
    "all_pinned": (
        "rows: 3\ncols: 3\nrow_degrees: 1 1 1\ncol_degrees: 1 1 1\n"
        "mask:\n100\n010\n001\n"
    ),
}

# Runs ``sample`` in-process for every chain spec given after the instance
# path, with the Metropolis correction on and off, and prints one JSON line
# [spec, mh, exit code, stdout] per run.
SAMPLE_EVERY_SPEC = """\
import contextlib, io, json, sys
from bipsample import cli
for spec in sys.argv[2:]:
    for mh in ("on", "off"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["sample", sys.argv[1], "--chain", spec, "--mh", mh,
                             "--steps", "200", "--count", "2", "--seed", "3"])
        print(json.dumps([spec, mh, code, out.getvalue()]), flush=True)
"""


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_sample_on_degenerate_shapes_writes_valid_realizations(tmp_path, name):
    # In a child process with a time limit, so that a draw from an empty
    # range fails the test whether it raises or never returns.
    text = DEGENERATE[name]
    path = write(tmp_path, "d.txt", text)
    done = subprocess.run(
        [sys.executable, "-c", SAMPLE_EVERY_SPEC, path, *CHAIN_SPECS],
        capture_output=True, text=True, timeout=60, env=subprocess_env(),
    )
    assert done.returncode == 0, done.stderr
    runs = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r[:2] for r in runs] == [[s, mh] for s in CHAIN_SPECS for mh in ("on", "off")]
    inst = cli.parse_instance(text)
    for spec, mh, code, out in runs:
        assert code == 0, (spec, mh)
        samples = out.split("\n\n")
        assert len(samples) == 2, (spec, mh)
        for sample in samples:
            cli.parse_realization(sample, inst)  # validates margins and mask


README_4X4 = """\
rows: 4
cols: 4
row_degrees: 2 2 2 2
col_degrees: 2 2 2 2
mask:
0***
*0**
**0*
***0
"""


def interpreter(version):
    """(path, environment) that run ``python<version>`` with this checkout's
    package, or None.  A pyenv shim also runs an installed version that is
    not selected when PYENV_VERSION names it."""
    exe = shutil.which(f"python{version}")
    if exe is None:
        return None
    for extra in ({}, {"PYENV_VERSION": version}):
        env = {**subprocess_env(), **extra}
        probe = subprocess.run(
            [exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, env=env,
        )
        if probe.returncode == 0 and probe.stdout.strip() == version:
            return exe, env
    return None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_sample_bytes_match_across_interpreters(tmp_path, capsys, version):
    # The chains draw through getrandbits and random(), whose streams CPython
    # keeps across versions; a version that drew differently would change
    # every seeded sample.
    found = interpreter(version)
    if found is None:
        pytest.skip(f"python{version} is not available")
    exe, env = found
    jobs = [
        [os.path.join(BENCH_DIR, "instances", "free_30x30_a.txt"),
         "--chain", "circle", "--steps", "3000", "--seed", "11", "--count", "2"],
        [write(tmp_path, "readme.txt", README_4X4),
         "--chain", "cycle:8", "--steps", "2000", "--gap", "7", "--seed", "5",
         "--count", "3"],
    ]
    for args in jobs:
        assert cli.main(["sample", *args]) == 0
        want = capsys.readouterr().out.encode()
        got = subprocess.run(
            [exe, "-m", "bipsample.cli", "sample", *args],
            capture_output=True, check=True, timeout=120, env=env,
        ).stdout
        assert got == want, args


# Runs the command given as its arguments and prints the command's exit
# code and the peak resident set size of this process's children, in KiB.
PEAK_RSS = """\
import resource, subprocess, sys
done = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_trades_on_a_wide_grid_stay_small(tmp_path):
    """``sample --chain trades --steps 10`` on a free 4x3,000 grid (row
    degrees 1,500, column degrees 2).  The chain holds no binomial table,
    which would take about 1 GB up to 3,000 columns, and the sampling
    process peaks near 15 MB, under a ceiling of 100 MB."""
    m = 3000
    path = write(tmp_path, "free_4x3000.txt", "\n".join([
        "rows: 4", f"cols: {m}", "row_degrees:" + f" {m // 2}" * 4,
        "col_degrees:" + " 2" * m, "mask:", *["*" * m] * 4, "",
    ]))
    argv = [sys.executable, "-m", "bipsample.cli", "sample", path,
            "--chain", "trades", "--steps", "10"]
    done = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], capture_output=True,
                          text=True, check=True, timeout=120, env=subprocess_env())
    code, peak_kib = map(int, done.stdout.split())
    assert code == 0
    assert peak_kib < 100 * 1024, peak_kib
