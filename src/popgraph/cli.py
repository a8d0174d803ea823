"""The ppg command-line tool.

A thin batch driver over the library: each subcommand reads .ppg/.stg files
named on the command line, writes results to stdout or to -o, and reports
problems on stderr.  No network, no environment variables, deterministic
output.

Exit codes: 0 success; 1 validation failure (bad graph, bad order, no
consistent order); 2 unreadable or unparsable input; 3 usage errors,
arity mismatches, and enumerations past their bound on search states.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .composition import elementary_decomposition, recompose
from .core import circ, hat
from .errors import ArityMismatch, ParseError, PpgError, TooLarge, UsageError
from .layout import layout, layout_st, render_svg, render_tikz
from .order import conjugate_order
from .ppgfile import emit_ppg, emit_stg, parse_ppg, parse_stg
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


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


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
    decomp = elementary_decomposition(pop)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = ["ppg-manifest 1", f"factors {len(decomp.factors)}"]
    for k, factor in enumerate(decomp.factors, 1):
        name = f"factor_{k:02d}.ppg"
        (outdir / name).write_text(emit_ppg(factor), encoding="utf-8")
        manifest.append(f"factor {k} {name}")
        print(name)
    for k, pairs in enumerate(decomp.interfaces, 1):
        manifest.append(f"interface {k} " + " ".join(f"{o}={i}" for o, i in pairs))
    (outdir / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
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
    rank = pop.order.rank
    for a, b in sorted(conjugate_order(pop), key=lambda p: (rank(p[0]), rank(p[1]))):
        print(f"{a} {b}")
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
