from __future__ import annotations

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
from popgraph.cli import main
from conftest import FIXTURES


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
        assert len(st.graph.vertices) == 8 and len(st.graph.edges) == 19
        code, out, _ = run(capsys, "circ", str(stg))
        assert code == 0
        back = pg.parse_ppg(out)
        assert pg.isomorphic_by_edges(back.graph, canonical.graph)

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
