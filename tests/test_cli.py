from __future__ import annotations

import functools
import io
import math
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import popgraph as pg
from popgraph import cli
from popgraph.cli import main
from conftest import (FIXTURES, decompose_files_oracle, decomposition_corpus, isomorphic_by_edges,
                      load, recipe_graph)


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
CANON = str(FIXTURES / "canonical19.ppg")
SPIDER = str(FIXTURES / "spider22.ppg")
LAYERS = [str(FIXTURES / n) for n in
          ("layer_top.ppg", "layer_mid.ppg", "layer_bot.ppg")]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHappyPaths:
    def test_validate(self, capsys):
        code, out, err = run(capsys, "validate", CANON)
        assert code == 0 and err == ""
        assert out == ("ok: 19 edges, 6 internal vertices, 8 inputs, 6 outputs, "
                       "anchors, vertex orders, planar order\n")

    def test_order_synthesizes(self, capsys):
        code, out, _ = run(capsys, "order", CANON)
        assert code == 0
        assert out == " ".join(str(i) for i in range(1, 20)) + "\n"

    def test_order_without_order_line(self, capsys):
        code, out, _ = run(capsys, "order", SPIDER)
        assert code == 0 and out == "i1 i2 o1 o2\n"

    def test_check_order(self, capsys):
        code, out, _ = run(capsys, "check-order", CANON)
        assert code == 0 and out == "valid planar order on 19 edges\n"

    def test_compose_layers(self, capsys, canonical):
        code, out, err = run(capsys, "compose", *LAYERS)
        assert code == 0 and err == ""
        got = pg.parse_ppg(out).pop()
        assert pg.pop_isomorphic(got, canonical)

    def test_compose_to_file(self, capsys, tmp_path, canonical):
        target = tmp_path / "composite.ppg"
        code, out, _ = run(capsys, "compose", *LAYERS, "-o", str(target))
        assert code == 0 and out == ""
        assert pg.pop_isomorphic(pg.parse_ppg(target.read_text()).pop(), canonical)

    def test_decompose(self, capsys, tmp_path, canonical):
        outdir = tmp_path / "factors"
        code, out, _ = run(capsys, "decompose", CANON, "-o", str(outdir))
        assert code == 0
        names = out.splitlines()
        assert names == [f"factor_{k:02d}.ppg" for k in range(1, 7)] + ["manifest.txt"]
        manifest = (outdir / "manifest.txt").read_text().splitlines()
        assert manifest[0] == "ppg-manifest 1"
        assert manifest[1] == "factors 6"
        assert sum(1 for l in manifest if l.startswith("factor ")) == 6
        assert sum(1 for l in manifest if l.startswith("interface ")) == 5
        for line in manifest:
            if line.startswith("interface "):
                assert all(p.split("=")[0] == p.split("=")[1]
                           for p in line.split()[2:])
        factors = [pg.parse_ppg((outdir / n).read_text()).pop() for n in names[:-1]]
        rebuilt = pg.compose(*factors)
        assert rebuilt.graph == canonical.graph and rebuilt.order == canonical.order

    def test_compose_of_the_decomposition_files(self, capsys, tmp_path, canonical):
        outdir = tmp_path / "factors"
        assert run(capsys, "decompose", CANON, "-o", str(outdir))[0] == 0
        manifest = (outdir / "manifest.txt").read_text().splitlines()
        files = [str(outdir / l.split()[2]) for l in manifest if l.startswith("factor ")]
        assert len(files) == 6
        code, out, err = run(capsys, "compose", *files)
        assert code == 0 and err == ""
        assert out == pg.emit_ppg(pg.recompose(pg.elementary_decomposition(canonical)))
        # the input's text but for the order of the edge lines: compose
        # declares the upper survivors, the fused edges, then the lower ones
        got, want = out.splitlines(), pg.emit_ppg(canonical).splitlines()
        edges = [sorted(l for l in lines if l.startswith("edge ")) for lines in (got, want)]
        rest = [[l for l in lines if not l.startswith("edge ")] for lines in (got, want)]
        assert edges[0] == edges[1] and rest[0] == rest[1]

    def test_enumerate(self, capsys):
        code, out, err = run(capsys, "enumerate", SPIDER)
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "i1 i2 o1 o2", "i1 i2 o2 o1", "i2 i1 o1 o2", "i2 i1 o2 o1"]

    def test_enumerate_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", SPIDER, "--count")
        assert code == 0 and out == "4\n"

    def test_enumerate_the_empty_graph(self, capsys, tmp_path):
        empty = tmp_path / "empty.ppg"
        empty.write_text("ppg 1\n", encoding="utf-8")
        assert run(capsys, "enumerate", str(empty)) == (0, "\n", "")
        assert run(capsys, "enumerate", "--count", str(empty)) == (0, "1\n", "")

    def test_enumerate_limit_warns(self, capsys):
        code, out, err = run(capsys, "enumerate", SPIDER, "--limit", "2")
        assert code == 0
        assert len(out.splitlines()) == 2
        assert err == "truncated at 2 orders\n"

    def test_enumerate_prints_each_order_as_found(self, monkeypatch):
        # the first order is written before the search looks for the second
        found, written = [], []
        search = pg.synthesis._search

        def counted(*args):
            for order in search(*args):
                found.append(order)
                yield order

        class Out(io.StringIO):
            def write(self, text):
                written.append(len(found))
                return super().write(text)

        monkeypatch.setattr(pg.synthesis, "_search", counted)
        monkeypatch.setattr(sys, "stdout", Out())
        assert main(["enumerate", SPIDER]) == 0
        assert written[0] == 1 and len(found) == 4

    def test_enumerate_takes_a_limit_past_sys_maxsize(self, capsys):
        code, out, err = run(capsys, "enumerate", "--limit", str(2**63), CANON)
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 576

    def test_enumerate_refuses_a_negative_limit(self, capsys):
        assert run(capsys, "enumerate", SPIDER, "--limit", "-2") == (
            3, "", "error: --limit must be 0 or more, not -2\n")

    def test_conjugate(self, capsys):
        code, out, _ = run(capsys, "conjugate", SPIDER.replace("spider22", "canonical19"))
        assert code == 0
        pairs = [tuple(l.split()) for l in out.splitlines()]
        assert ("5", "6") in pairs
        assert ("8", "13") not in pairs
        rank = {str(i): i for i in range(1, 20)}
        assert pairs == sorted(pairs, key=lambda p: (rank[p[0]], rank[p[1]]))

    def test_hat_and_circ(self, capsys, tmp_path, canonical):
        stg = tmp_path / "canonical.stg"
        code, _, _ = run(capsys, "hat", CANON, "-o", str(stg))
        assert code == 0
        st = pg.parse_stg(stg.read_text())
        assert len(st.vertices) == 8 and len(st.edges) == 19
        code, out, _ = run(capsys, "circ", str(stg))
        assert code == 0
        back = pg.parse_ppg(out)
        assert isomorphic_by_edges(back.graph, canonical.graph)

    def test_render_svg_default(self, capsys):
        code, out, _ = run(capsys, "render", CANON)
        assert code == 0 and out.startswith("<svg") and out.count("<path ") == 19

    def test_render_format_by_extension(self, capsys, tmp_path):
        tex = tmp_path / "d.tex"
        assert run(capsys, "render", CANON, "-o", str(tex))[0] == 0
        assert tex.read_text().startswith("\\begin{tikzpicture}")
        svg = tmp_path / "d.svg"
        assert run(capsys, "render", CANON, "-o", str(svg))[0] == 0
        assert svg.read_text().startswith("<svg")

    def test_render_flags(self, capsys):
        code, out, _ = run(capsys, "render", CANON, "--st", "--up", "--format", "tikz")
        assert code == 0 and out.startswith("\\begin{tikzpicture}")
        code, out, _ = run(capsys, "render", SPIDER, "--st")
        assert code == 0 and out.count("<circle ") == 3

    def test_render_synthesizes_when_no_order(self, capsys):
        code, out, _ = run(capsys, "render", SPIDER)
        assert code == 0 and out.startswith("<svg")


class TestOutputFiles:
    """Every file the tool writes is overwritten in place: opened without
    O_TRUNC, written in full, then cut to the new text if it is a regular
    file longer than the text."""

    def test_decompose_over_longer_files(self, capsys, tmp_path):
        fresh, outdir = tmp_path / "fresh", tmp_path / "factors"
        assert run(capsys, "decompose", CANON, "-o", str(fresh))[0] == 0
        want = {p.name: p.read_bytes() for p in fresh.iterdir()}
        outdir.mkdir()
        for name in ("factor_01.ppg", "manifest.txt"):
            (outdir / name).write_text("junk " * 20_000 + "\n")
        for _ in range(2):
            assert run(capsys, "decompose", CANON, "-o", str(outdir))[0] == 0
            assert {p.name: p.read_bytes() for p in outdir.iterdir()} == want

    def test_render_over_a_longer_file(self, capsys, tmp_path):
        _, svg, _ = run(capsys, "render", CANON)
        target = tmp_path / "d.svg"
        target.write_text("<junk/>\n" * 20_000)
        assert run(capsys, "render", CANON, "-o", str(target)) == (0, "", "")
        assert target.read_text(encoding="utf-8") == svg

    def test_a_new_file_gets_the_usual_mode(self, capsys, tmp_path):
        made, written = tmp_path / "made.svg", tmp_path / "written.svg"
        made.write_text("")
        assert run(capsys, "render", CANON, "-o", str(written))[0] == 0
        assert written.stat().st_mode == made.stat().st_mode

    def test_render_to_devnull(self, capsys):
        # not a regular file, so not truncated: ftruncate would fail there
        assert run(capsys, "render", CANON, "-o", os.devnull) == (0, "", "")

    def test_every_output_file_is_opened_without_truncation(self, capsys, tmp_path,
                                                            monkeypatch):
        opened = []
        real_open = os.open

        def recording_open(path, flags, *rest):
            opened.append((Path(path), flags))
            return real_open(path, flags, *rest)

        monkeypatch.setattr(os, "open", recording_open)
        out, stg = tmp_path / "out", tmp_path / "c.stg"
        out.mkdir()
        runs = [("compose", *LAYERS, "-o", str(out / "c.ppg")),
                ("hat", CANON, "-o", str(stg)),
                ("circ", str(stg), "-o", str(out / "back.ppg")),
                ("render", CANON, "-o", str(out / "d.svg")),
                ("render", CANON, "--format", "tikz", "-o", str(out / "d.tex")),
                ("decompose", CANON, "-o", str(out / "factors"))]
        for argv in runs:
            assert run(capsys, *argv)[0] == 0
        written = {stg, *out.glob("*.*"), *(out / "factors").iterdir()}
        assert len(written) == 5 + 7  # six factors and the manifest
        assert {path for path, _ in opened} == written and len(opened) == len(written)
        for path, flags in opened:
            assert flags & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT, path
            assert not flags & os.O_TRUNC, path

    def test_a_short_write_is_resumed(self, capsys, tmp_path, monkeypatch):
        _, svg, _ = run(capsys, "render", CANON)
        real_write = os.write
        sizes = []

        def short_write(fd, data):
            sizes.append(real_write(fd, data[:7]))
            return sizes[-1]

        monkeypatch.setattr(os, "write", short_write)
        target = tmp_path / "d.svg"
        assert run(capsys, "render", CANON, "-o", str(target)) == (0, "", "")
        assert target.read_text(encoding="utf-8") == svg
        assert len(sizes) == -(-len(svg.encode()) // 7)

    def test_only_a_longer_old_file_is_cut(self, capsys, tmp_path, monkeypatch):
        cuts = []
        real_ftruncate = os.ftruncate

        def counted(fd, length):
            cuts.append(length)
            return real_ftruncate(fd, length)

        monkeypatch.setattr(os, "ftruncate", counted)
        outdir = tmp_path / "factors"
        for _ in range(2):  # a fresh directory, then an identical rerun
            assert run(capsys, "decompose", CANON, "-o", str(outdir))[0] == 0
            assert cuts == []
        want = {p.name: p.read_bytes() for p in outdir.iterdir()}
        (outdir / "factor_01.ppg").write_text("junk " * 20_000 + "\n")
        (outdir / "factor_02.ppg").write_text("x\n")  # shorter: written over
        (outdir / "manifest.txt").write_bytes(want["manifest.txt"] + b"\n")
        assert run(capsys, "decompose", CANON, "-o", str(outdir))[0] == 0
        assert sorted(cuts) == sorted([len(want["factor_01.ppg"]), len(want["manifest.txt"])])
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == want


class TestDecomposeOutput:
    def test_files_manifest_and_stdout_equal_the_oracle(self, capsys, tmp_path):
        # the factor texts are read off the peel steps; the oracle emits each
        # factor it built by sorting, and its manifest from glue_table
        for name, pop in decomposition_corpus():
            src = tmp_path / (name + ".ppg")
            src.write_text(pg.emit_ppg(pop), encoding="utf-8")
            outdir = tmp_path / name
            want = decompose_files_oracle(pop)
            assert run(capsys, "decompose", str(src), "-o", str(outdir)) == (
                0, "".join(n + "\n" for n in want), ""), name
            got = {p.name: p.read_text(encoding="utf-8") for p in outdir.iterdir()}
            assert got == want, name


class TestWorkOnTheDrawPath:
    """``ppg render`` and ``ppg decompose`` read the local data of the parsed
    order in one walk, shared by the parse, the peel walk and the layout,
    and build no graph but the parse's: no factor graph is validated."""

    @staticmethod
    def counted_walks(monkeypatch) -> list[pg.POPGraph]:
        """The ordered graphs whose local data are walked from now on, one
        entry per walk: ``POPGraph._local`` is replaced by a cached property
        that records each graph it computes for."""
        walks, walk = [], pg.POPGraph._local.func

        def counted(pop):
            walks.append(pop)
            return walk(pop)

        prop = functools.cached_property(counted)
        prop.__set_name__(pg.POPGraph, "_local")
        monkeypatch.setattr(pg.POPGraph, "_local", prop)
        return walks

    @pytest.mark.parametrize("argv", [["render", "-o", "out.svg"],
                                      ["render", "--st", "--up", "-o", "out.tex"],
                                      ["decompose", "-o", "factors"]],
                             ids=["render", "render-st-up", "decompose"])
    def test_one_walk_and_one_graph(self, argv, capsys, monkeypatch, tmp_path):
        src = tmp_path / "recipe.ppg"
        src.write_text(pg.emit_ppg(recipe_graph(16, 16)), encoding="utf-8")
        walks, graphs = self.counted_walks(monkeypatch), []
        build = pg.ProgressiveGraph.__init__

        def counted_build(self, graph):
            graphs.append(graph)
            build(self, graph)

        monkeypatch.setattr(pg.ProgressiveGraph, "__init__", counted_build)
        command, *rest = argv
        rest[-1] = str(tmp_path / rest[-1])
        assert main([command, str(src), *rest]) == 0
        capsys.readouterr()
        assert len(walks) == 1
        assert len(graphs) == 1

    def test_compose_walks_each_parsed_factor_once(self, capsys, monkeypatch, tmp_path):
        # the glue tables read the boundaries the parse walked; the one
        # more walk is the composite's, which emit_ppg writes
        outdir = tmp_path / "factors"
        assert main(["decompose", CANON, "-o", str(outdir)]) == 0
        capsys.readouterr()
        names = [line.split()[2] for line in (outdir / "manifest.txt").read_text().splitlines()
                 if line.startswith("factor ")]
        assert len(names) == 6
        walks, parsed, parse = self.counted_walks(monkeypatch), [], cli.parse_ppg

        def recorded_parse(text):
            parsed.append(parse(text))
            return parsed[-1]

        monkeypatch.setattr(cli, "parse_ppg", recorded_parse)
        assert main(["compose", *(str(outdir / n) for n in names)]) == 0
        walked = list(walks)
        composite = pg.parse_ppg(capsys.readouterr().out).pop()
        assert composite.graph == load("canonical19.ppg").graph
        assert len(parsed) == len(names) and len(walked) == len(names) + 1
        assert all(pop is doc.pop() for pop, doc in zip(walked, parsed))
        assert walked[-1] == composite

    def test_the_local_data_of_an_order_is_not_aliased(self):
        doc = load("canonical19.ppg")
        pop = doc.pop()
        text = pg.emit_ppg(pop)
        pa = pg.extract_pa(pop)
        pa.vertex_orders.clear()
        pa.vertex_orders["A"] = pg.VertexOrder((), ())
        doc.pa().vertex_orders.clear()
        assert pg.emit_ppg(pop) == text


class TestExitCodes:
    def test_validation_failure_is_1(self, capsys, tmp_path):
        bad = tmp_path / "cycle.ppg"
        bad.write_text("ppg 1\nedge 1 p v\nedge 2 v w\nedge 3 w v\nedge 4 w q\n")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1 and out == "" and err.startswith("error:")

    def test_no_order_line_is_1(self, capsys):
        code, _, err = run(capsys, "check-order", SPIDER)
        assert code == 1 and "no order line" in err
        assert run(capsys, "conjugate", SPIDER)[0] == 1

    def test_no_consistent_order_is_1(self, capsys, tmp_path):
        bad = tmp_path / "crossed.ppg"
        bad.write_text("ppg 1\nedge a p q\nedge b r s\n"
                       "inputs a b\noutputs b a\n")
        code, _, err = run(capsys, "order", str(bad))
        assert code == 1 and "error:" in err

    def test_hat_of_no_edge_is_1(self, capsys, tmp_path):
        empty = tmp_path / "empty.ppg"
        empty.write_text("ppg 1\n")
        assert run(capsys, "hat", str(empty)) == (
            1, "", "error: the graph has no edge to gather into the apexes s and t\n")

    def test_parse_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.ppg"
        bad.write_text("ppg 2\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2 and err.startswith("error: line 1:")

    def test_missing_file_is_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "absent.ppg"))
        assert code == 2 and "error:" in err

    def test_usage_errors_are_3(self, capsys):
        assert run(capsys, "compose", CANON)[0] == 3
        assert run(capsys, "frobnicate", CANON)[0] == 3
        assert run(capsys)[0] == 3

    def test_arity_mismatch_is_3(self, capsys):
        code, _, err = run(capsys, "compose", LAYERS[0], LAYERS[2])
        assert code == 3
        assert "cannot glue 8 outputs onto 7 inputs" in err

    def test_forced_count_on_a_long_path(self, capsys, tmp_path):
        edges = [pg.Edge(f"e{k}", f"v{k}", f"v{k + 1}") for k in range(1200)]
        pop = pg.validate_planar_order(
            pg.validate_progressive(pg.DirectedMultigraph(edges)), [e.id for e in edges])
        path = tmp_path / "path1200.ppg"
        path.write_text(pg.emit_ppg(pop), encoding="utf-8")
        assert run(capsys, "enumerate", str(path), "--count") == (0, "1\n", "")

    def test_size_guard_is_3(self, capsys, tmp_path):
        # 9! orders of 9 bare edges: the listing passes the bound on
        # prefixes mid-stream and keeps the orders it printed
        path = tmp_path / "bare9.ppg"
        path.write_text(pg.emit_ppg(pg.bare_edges(9)), encoding="utf-8")
        code, out, err = run(capsys, "enumerate", str(path))
        assert code == 3
        assert err == (f"error: enumeration bound passed: more than {1 << 16} "
                       "prefixes searched; force to override\n")
        lines = out.splitlines()
        assert 0 < len(lines) < math.factorial(9)
        assert lines[0] == "w1 w2 w3 w4 w5 w6 w7 w8 w9"
        assert all(sorted(line.split()) == sorted(lines[0].split()) for line in lines)
        assert run(capsys, "enumerate", str(path), "--count") == (0, "362880\n", "")
        assert run(capsys, "enumerate", str(path), "--force", "--limit", "2")[0] == 0

    def test_the_bound_and_force(self, capsys, monkeypatch):
        # the sixth prefix pushed, (i2, i1), comes after two orders
        monkeypatch.setattr(pg.synthesis, "_STATES", 5)
        code, out, err = run(capsys, "enumerate", SPIDER)
        assert (code, out) == (3, "i1 i2 o1 o2\ni1 i2 o2 o1\n")
        assert "more than 5 prefixes searched" in err
        code, out, err = run(capsys, "enumerate", CANON, "--count")
        assert (code, out) == (3, "")
        assert "more than 5 placed sets remembered" in err
        assert run(capsys, "enumerate", SPIDER, "--force")[:2] == (0, (
            "i1 i2 o1 o2\ni1 i2 o2 o1\ni2 i1 o1 o2\ni2 i1 o2 o1\n"))
        assert run(capsys, "enumerate", CANON, "--count", "--force") == (0, "576\n", "")


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "popgraph", "order", CANON],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0
        assert proc.stdout == " ".join(str(i) for i in range(1, 20)) + "\n"

    def test_console_script(self, tmp_path):
        # The entry point that pyproject.toml declares must load cli.main;
        # the launcher below is the one an installer writes from it, so the
        # test runs from a plain checkout with no `ppg` installed.
        ep = EntryPoint("ppg", _console_scripts()["ppg"], "console_scripts")
        assert ep.load() is main
        launcher = tmp_path / "ppg"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {ep.module} import {ep.attr}\n"
            f"sys.exit({ep.attr}())\n")
        launcher.chmod(0o755)
        env = dict(os.environ,
                   PATH=os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]))
        proc = subprocess.run(["ppg", "validate", CANON], env=env,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0 and proc.stdout.startswith("ok: 19 edges")

    @pytest.mark.skipif(shutil.which("ppg") is None,
                        reason="ppg is not installed on PATH")
    def test_installed_console_script(self):
        proc = subprocess.run([shutil.which("ppg"), "validate", CANON],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0 and proc.stdout.startswith("ok: 19 edges")


def _console_scripts() -> dict[str, str]:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]
