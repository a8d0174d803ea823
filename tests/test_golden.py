"""Golden `ppg` transcripts: exit code, stdout and stderr, byte for byte.

Every input (the ``tests/fixtures`` files plus, under ``tests/golden/inputs``,
a seeded layered corpus, each graph with and without its order line, the
hand-written ``fresh_names.ppg``, whose vertex names collide with the ``s@``/``t@``
names decomposition generates, and three hand-written inputs whose order lines
are not planar: ``canonical19_reversed.ppg`` (extension violations only),
``canonical19_swap89.ppg`` (betweenness violations only) and
``layer_top_shuffled.ppg`` (both)) is run through ``popgraph.cli.main`` in-process
with a fixed list of subcommands, and the transcript must equal the committed
``tests/golden/<input>.txt``.
A refactor that is meant to keep behaviour keeps these files unchanged; one
that changes output on purpose regenerates them and says so in CHANGES.md.

Regenerate the corpus and the transcripts (the hand-written inputs are kept) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import popgraph as pg
from popgraph.cli import main
from conftest import FIXTURES

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# (layers, input width) of the seeded corpus; every graph has at most 40 edges
CORPUS_SHAPES = ((2, 3), (2, 6), (2, 9), (3, 4), (3, 7), (4, 4), (5, 3), (6, 2))
LAYER_FIXTURES = ("layer_top.ppg", "layer_mid.ppg", "layer_bot.ppg")

COMMANDS = (
    ("validate",),
    ("order",),
    ("check-order",),
    ("conjugate",),
    ("hat",),
    ("render",),
    ("render", "--st", "--up", "--format", "tikz"),
)


def corpus_graph(layers: int, width: int) -> pg.POPGraph:
    """The layered graph of the benchmark corpus recipe, seed 0."""
    rng = random.Random(0)
    pop = pg.random_elementary_layer(rng, "L0.", n_inputs=width)
    for k in range(1, layers):
        pop = pg.compose(pop, pg.random_elementary_layer(
            rng, f"L{k}.", n_inputs=len(pop.graph.outputs)))
    return pop


def input_files() -> list[Path]:
    return sorted(FIXTURES.glob("*.ppg")) + sorted(INPUTS.glob("*.ppg"))


def write_corpus() -> None:
    INPUTS.mkdir(parents=True, exist_ok=True)
    for layers, width in CORPUS_SHAPES:
        text = pg.emit_ppg(corpus_graph(layers, width))
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


def compose_transcript() -> str:
    paths = [FIXTURES / n for n in LAYER_FIXTURES]
    return _run(["compose", *map(str, paths)], ["compose", *LAYER_FIXTURES])


def write_golden() -> None:
    for path in input_files():
        (GOLDEN / f"{path.stem}.txt").write_text(transcript(path), encoding="utf-8")
    (GOLDEN / "compose_layers.txt").write_text(compose_transcript(), encoding="utf-8")


def _expected(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("path", input_files(), ids=lambda p: p.name)
def test_transcript(path):
    assert transcript(path).encode("utf-8") == _expected(f"{path.stem}.txt")


def test_compose_layers_transcript():
    assert compose_transcript().encode("utf-8") == _expected("compose_layers.txt")


def test_corpus_inputs_are_current():
    # the committed corpus is what the recipe still produces
    for layers, width in CORPUS_SHAPES:
        text = pg.emit_ppg(corpus_graph(layers, width))
        assert text.encode("utf-8") == (INPUTS / f"layered_{layers}x{width}.ppg").read_bytes()


if __name__ == "__main__":
    write_corpus()
    write_golden()
