"""Golden `ppg` transcripts: exit code, stdout and stderr, byte for byte.

Every input (the ``tests/fixtures`` files plus, under ``tests/golden/inputs``,
a seeded layered corpus, each graph with and without its order line, the
hand-written ``fresh_names.ppg``, whose vertex names collide with the ``s@``/``t@``
names decomposition generates, three hand-written inputs whose order lines
are not planar: ``canonical19_reversed.ppg`` (extension violations only),
``canonical19_swap89.ppg`` (betweenness violations only) and
``layer_top_shuffled.ppg`` (both), ``canonical19_conflict.ppg``, whose
anchor swaps two outputs so that ``ppg order`` finds no consistent order, and
``canonical19_disagree.ppg``, whose anchor its order line does not give) is run through ``popgraph.cli.main`` in-process
with a fixed list of subcommands, and the transcript must equal the committed
``tests/golden/<input>.txt``.
``ppg enumerate`` (a listing capped at 20 orders, and the count) has its own
transcripts under ``tests/golden/enumerate``, on the fixtures, ``fresh_names``
and three small layered graphs with and without their order lines.
A refactor that is meant to keep behaviour keeps these files unchanged; one
that changes output on purpose regenerates them and says so in CHANGES.md.

Regenerate the corpus and the transcripts (the hand-written inputs are kept) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import popgraph as pg
from popgraph.cli import main
from conftest import FIXTURES, recipe_graph

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# (layers, input width) of the seeded corpus; every graph has at most 40 edges
CORPUS_SHAPES = ((2, 3), (2, 6), (2, 9), (3, 4), (3, 7), (4, 4), (5, 3), (6, 2))
LAYER_FIXTURES = ("layer_top.ppg", "layer_mid.ppg", "layer_bot.ppg")
ENUMERATED = ("fresh_names", "layered_2x3", "layered_2x3_noorder", "layered_2x6",
              "layered_2x6_noorder", "layered_6x2", "layered_6x2_noorder")

COMMANDS = (
    ("validate",),
    ("order",),
    ("check-order",),
    ("conjugate",),
    ("hat",),
    ("render",),
    ("render", "--format", "tikz"),
    ("render", "--st"),
    ("render", "--up"),
    ("render", "--st", "--up", "--format", "tikz"),
)


def input_files() -> list[Path]:
    return sorted(FIXTURES.glob("*.ppg")) + sorted(INPUTS.glob("*.ppg"))


def write_corpus() -> None:
    INPUTS.mkdir(parents=True, exist_ok=True)
    for layers, width in CORPUS_SHAPES:
        text = pg.emit_ppg(recipe_graph(layers, width))
        stem = f"layered_{layers}x{width}"
        (INPUTS / f"{stem}.ppg").write_text(text, encoding="utf-8")
        unordered = "".join(line for line in text.splitlines(keepends=True)
                            if not line.startswith("order "))
        (INPUTS / f"{stem}_noorder.ppg").write_text(unordered, encoding="utf-8")


def _section(title: str, text: str) -> str:
    return f"--- {title} ({len(text.encode('utf-8'))} bytes)\n{text}\n"


def _run(argv: list[str], shown: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return (f"$ ppg {' '.join(shown)}\nexit {code}\n"
            + _section("stdout", out.getvalue()) + _section("stderr", err.getvalue()))


def transcript(path: Path) -> str:
    """Every covered subcommand on one input file, with decompose's files."""
    parts = [_run([*cmd, str(path)], [*cmd, path.name]) for cmd in COMMANDS]
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "factors"
        parts.append(_run(["decompose", str(path), "-o", str(outdir)],
                          ["decompose", path.name, "-o", "factors"]))
        for f in sorted(outdir.glob("*")) if outdir.is_dir() else ():
            parts.append(_section(f"file {f.name}", f.read_text(encoding="utf-8")))
    return "".join(parts)


def enumerate_inputs() -> list[Path]:
    return sorted(FIXTURES.glob("*.ppg")) + [INPUTS / f"{stem}.ppg" for stem in ENUMERATED]


def enumerate_transcript(path: Path) -> str:
    return "".join(_run([*cmd, str(path)], [*cmd, path.name]) for cmd in (
        ("enumerate", "--limit", "20"), ("enumerate", "--count")))


def compose_transcript() -> str:
    paths = [FIXTURES / n for n in LAYER_FIXTURES]
    return _run(["compose", *map(str, paths)], ["compose", *LAYER_FIXTURES])


def write_golden() -> None:
    for path in input_files():
        (GOLDEN / f"{path.stem}.txt").write_text(transcript(path), encoding="utf-8")
    (GOLDEN / "compose_layers.txt").write_text(compose_transcript(), encoding="utf-8")
    (GOLDEN / "enumerate").mkdir(exist_ok=True)
    for path in enumerate_inputs():
        (GOLDEN / "enumerate" / f"{path.stem}.txt").write_text(
            enumerate_transcript(path), encoding="utf-8")


def _expected(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("path", input_files(), ids=lambda p: p.name)
def test_transcript(path):
    assert transcript(path).encode("utf-8") == _expected(f"{path.stem}.txt")


@pytest.mark.parametrize("path", enumerate_inputs(), ids=lambda p: p.name)
def test_enumerate_transcript(path):
    assert enumerate_transcript(path).encode("utf-8") == _expected(f"enumerate/{path.stem}.txt")


def test_compose_layers_transcript():
    assert compose_transcript().encode("utf-8") == _expected("compose_layers.txt")


def test_corpus_inputs_are_current():
    # the committed corpus is what the recipe still produces
    for layers, width in CORPUS_SHAPES:
        text = pg.emit_ppg(recipe_graph(layers, width))
        assert text.encode("utf-8") == (INPUTS / f"layered_{layers}x{width}.ppg").read_bytes()


if __name__ == "__main__":
    write_corpus()
    write_golden()
