"""The ppg command-line tool.

A thin batch driver over the library: each subcommand reads .ppg/.stg files
named on the command line, writes results to stdout or to -o, and reports
problems on stderr.  No network, no environment variables, deterministic
output.

An ``-o`` file (and each file ``decompose`` writes) is overwritten in
place: it is opened without truncation and its text written in one write
call, resumed where a write takes only part of it; only a longer old file
is then cut at the end of the new text, so no excess of it is left.  A
target that is not a regular file, such as ``/dev/null`` or a pipe, is
written and not truncated.  Nothing is synced to disk, before or after.
``decompose`` builds the text of every factor from the peel steps before
it writes the first file.

Exit codes: 0 success; 1 validation failure (bad graph, bad order, no
consistent order); 2 unreadable or unparsable input; 3 usage errors,
arity mismatches, and enumerations past their bound on search states.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from pathlib import Path

from .composition import _named_steps, recompose
from .core import circ, hat
from .errors import ArityMismatch, ParseError, PpgError, TooLarge, UsageError
from .layout import layout, layout_st, render_svg, render_tikz
from .ppgfile import _ppg_text, emit_ppg, emit_stg, parse_ppg, parse_stg
from .synthesis import _list_orders, count_planar_orders, synthesize_order


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


@functools.cache  # built once per process: parsing leaves the parser unchanged
def _build_parser() -> _Parser:
    p = _Parser(prog="ppg", description="planar-order calculus for progressive graphs")
    sub = p.add_subparsers(dest="command", metavar="command")

    def cmd(name, help, **kw):
        c = sub.add_parser(name, help=help, description=help, **kw)
        return c

    c = cmd("validate", "parse a .ppg file and report what it contains")
    c.add_argument("file")

    c = cmd("order", "synthesize the planar order from vertex orders and anchors")
    c.add_argument("file")

    c = cmd("check-order", "validate the order line of a .ppg file")
    c.add_argument("file")

    c = cmd("compose", "glue two or more ordered graphs output-to-input")
    c.add_argument("files", nargs="+", metavar="file")
    c.add_argument("-o", "--output", help="write the composite here (default stdout)")

    c = cmd("decompose", "split an ordered graph into elementary factors")
    c.add_argument("file")
    c.add_argument("-o", "--output", required=True, metavar="dir",
                   help="directory for factor files and manifest.txt")

    c = cmd("enumerate", "list every planar order of the graph")
    c.add_argument("file")
    c.add_argument("--limit", type=int, help="stop after this many orders")
    c.add_argument("--count", action="store_true", help="print only the count")
    c.add_argument("--force", action="store_true",
                   help="lift the bound on search states: the prefixes a listing "
                        "searches, or the sets of placed edges --count remembers "
                        "(up to 2^m for m edges)")

    c = cmd("conjugate", "print the conjugate order as one pair per line")
    c.add_argument("file")

    c = cmd("hat", "gather the boundary into source and sink apexes (.stg out)")
    c.add_argument("file")
    c.add_argument("-o", "--output")

    c = cmd("circ", "split the apexes of a .stg file back into a boundary")
    c.add_argument("file")
    c.add_argument("-o", "--output")

    c = cmd("render", "draw the graph as SVG or TikZ")
    c.add_argument("file")
    c.add_argument("-o", "--output")
    c.add_argument("--format", choices=("svg", "tikz"),
                   help="default: by output extension, else svg")
    c.add_argument("--st", action="store_true",
                   help="draw with source and sink apexes")
    c.add_argument("--up", action="store_true",
                   help="flow bottom to top instead of top to bottom")
    return p


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(text: str, output: str | Path | None) -> None:
    """Write ``text`` to stdout, or over the file ``output`` in place.

    Opening without ``O_TRUNC`` and cutting only an excess after the write
    costs less than emptying the old file first, which frees its blocks and
    makes the file system flush the new ones at close."""
    if output is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(output, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:  # a write may take only part of what it is given
            rest = rest[os.write(fd, rest):]
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _cmd_validate(args) -> int:
    doc = parse_ppg(_read(args.file))
    g = doc.graph
    bits = [f"{len(g.edges)} edges", f"{len(g.internal_vertices)} internal vertices",
            f"{len(g.inputs)} inputs", f"{len(g.outputs)} outputs"]
    if doc.anchor is not None:
        bits.append("anchors")
    if doc.vertex_orders:
        bits.append("vertex orders")
    if doc.order is not None:
        bits.append("planar order")
    print("ok: " + ", ".join(bits))
    return 0


def _cmd_order(args) -> int:
    doc = parse_ppg(_read(args.file))
    order = synthesize_order(doc.pa())
    print(" ".join(order.sequence))
    return 0


def _cmd_check_order(args) -> int:
    doc = parse_ppg(_read(args.file))
    pop = doc.pop()
    print(f"valid planar order on {len(pop.order.sequence)} edges")
    return 0


def _cmd_compose(args) -> int:
    if len(args.files) < 2:
        raise UsageError("compose takes at least two files")
    pops = [parse_ppg(_read(f)).pop() for f in args.files]
    _write(emit_ppg(recompose(pops)), args.output)
    return 0


def _cmd_decompose(args) -> int:
    pop = parse_ppg(_read(args.file)).pop()
    texts, lines = [], []
    for step, edges, _ in _named_steps(pop):
        # downstream first, each factor's text read off the step: its edges
        # in declaration order, the vertex and its legs, the line after the
        # step as its inputs and the line before it as its outputs.  Peeling
        # leaves a progressive factor, and every name came through the
        # parser's tokens or adds "s@", "t@" or "'" to one, so neither is
        # checked again (the tests check both on every factor)
        texts.append(_ppg_text(edges, (("inputs", step.after), ("outputs", step.before)),
                               {step.vertex: (step.ins, step.outs)}, [("order", step.order)]))
        lines.append(step.before)
    texts = texts[::-1] or [emit_ppg(pop)]  # no internal vertex: its own factor
    lines.reverse()
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = ["ppg-manifest 1", f"factors {len(texts)}"]
    for k, text in enumerate(texts, 1):
        name = f"factor_{k:02d}.ppg"
        _write(text, outdir / name)
        manifest.append(f"factor {k} {name}")
        print(name)
    # the outputs of each factor but the most downstream one
    for k, line in enumerate(lines[:-1], 1):
        manifest.append(f"interface {k} " + " ".join(f"{e}={e}" for e in line))
    _write("\n".join(manifest) + "\n", outdir / "manifest.txt")
    print("manifest.txt")
    return 0


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise UsageError(f"--limit must be 0 or more, not {args.limit}")
    g = parse_ppg(_read(args.file)).graph
    if args.count:
        print(count_planar_orders(g, force=args.force))
        return 0
    if _list_orders(g, args.limit, args.force, lambda o: print(" ".join(o.sequence))):
        print(f"truncated at {args.limit} orders", file=sys.stderr)
    return 0


def _cmd_conjugate(args) -> int:
    pop = parse_ppg(_read(args.file)).pop()
    sys.stdout.writelines(f"{a} {b}\n" for a, b in pop._conjugate())
    return 0


def _cmd_hat(args) -> int:
    doc = parse_ppg(_read(args.file))
    _write(emit_stg(hat(doc.graph)), args.output)
    return 0


def _cmd_circ(args) -> int:
    st = parse_stg(_read(args.file))
    _write(emit_ppg(circ(st)), args.output)
    return 0


def _cmd_render(args) -> int:
    doc = parse_ppg(_read(args.file))
    pop = doc.pop_or_synthesized()
    drawing = layout_st(pop, up=args.up) if args.st else layout(pop, up=args.up)
    fmt = args.format
    if fmt is None:
        ext = Path(args.output).suffix.lower() if args.output else ""
        fmt = "tikz" if ext in (".tex", ".tikz") else "svg"
    text = render_tikz(drawing) if fmt == "tikz" else render_svg(drawing)
    _write(text, args.output)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "order": _cmd_order,
    "check-order": _cmd_check_order,
    "compose": _cmd_compose,
    "decompose": _cmd_decompose,
    "enumerate": _cmd_enumerate,
    "conjugate": _cmd_conjugate,
    "hat": _cmd_hat,
    "circ": _cmd_circ,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (try --help)")
        return _COMMANDS[args.command](args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (UsageError, ArityMismatch, TooLarge) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except PpgError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
