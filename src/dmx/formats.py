"""Text formats: ".dm" set systems, ".gf2" binary matrices, ".rg" ribbon graphs.

All formats are UTF-8 with LF line endings; blank lines and lines starting
with '#' are ignored on input.  Output is canonical, so parse/print round
trips are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import GroundSet, SetSystem
from .gf2 import Gf2Matrix, Gf2SymmetricMatrix
from .ribbon import RibbonEdge, RibbonGraph

DELTA_KIND = "delta-matroid"
MATROID_KIND = "matroid"


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = "line %d" % line
            if column is not None:
                loc += ", col %d" % column
            loc += ": "
        super().__init__(loc + message)


@dataclass(frozen=True)
class DmFile:
    kind: str
    system: SetSystem


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, raw, line


def _label(lab: str, lineno: int) -> str:
    """A .dm ground label or .rg edge label (which to-dm makes a ground
    label): '{', '}' and ',' would break the printed set syntax."""
    if any(c in lab for c in "{},"):
        raise ParseError("label %r contains a reserved character" % lab, lineno)
    return lab


def parse_dm(text: str) -> DmFile:
    kind = DELTA_KIND
    ground: Optional[GroundSet] = None
    bit_of: dict[str, int] = {}  # ground label -> its mask bit
    masks: dict[int, int] = {}  # feasible set mask -> its line
    for lineno, raw, line in _content_lines(text):
        if ":" not in line:
            raise ParseError("expected 'key: value'", lineno, 1)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "kind":
            if value not in (DELTA_KIND, MATROID_KIND):
                raise ParseError("unknown kind %r" % value, lineno, raw.index(value) + 1)
            kind = value
        elif key == "ground":
            if ground is not None:
                raise ParseError("duplicate ground line", lineno, 1)
            for lab in value.split():
                if lab in bit_of:
                    raise ParseError("duplicate ground label %r" % lab, lineno)
                bit_of[_label(lab, lineno)] = 1 << len(bit_of)
            ground = GroundSet(tuple(bit_of))
        elif key == "feasible":
            if ground is None:
                raise ParseError("feasible line before ground line", lineno, 1)
            if not (value.startswith("{") and value.endswith("}")):
                raise ParseError("feasible set must be brace-delimited", lineno, raw.index(value) + 1)
            body = value[1:-1]
            mask = 0
            if body.strip():
                # 1-based column of each piece, counted from the opening brace
                col = raw.index(value) + 2
                for piece in body.split(","):
                    lab = piece.strip()
                    bit = bit_of.get(lab, 0)
                    if not bit or mask & bit:
                        what = "repeated label %r in feasible set" if bit else "unknown label %r"
                        raise ParseError(what % lab, lineno, col + piece.index(lab))
                    mask |= bit
                    col += len(piece) + 1
            if mask in masks:
                raise ParseError("repeated feasible set (first on line %d)" % masks[mask], lineno, 1)
            masks[mask] = lineno
        else:
            raise ParseError("unknown key %r" % key, lineno, 1)
    if ground is None:
        raise ParseError("missing ground line")
    return DmFile(kind, SetSystem(ground, tuple(masks)))


def dump_dm(system: SetSystem) -> str:
    lines = ["ground: " + " ".join(system.ground.labels)]
    for m in system.family:
        lines.append("feasible: " + system.render_set(m))
    return "\n".join(lines) + "\n"


def parse_gf2(text: str) -> Union[Gf2SymmetricMatrix, Gf2Matrix]:
    header: Optional[tuple] = None
    rows: list[int] = []
    expect_rows = expect_cols = 0
    for lineno, raw, line in _content_lines(text):
        if header is None:
            tokens = line.split()
            if tokens[0] == "gf2sym" and len(tokens) == 2 and tokens[1].isdigit():
                expect_rows = expect_cols = int(tokens[1])
                header = ("sym",)
            elif tokens[0] == "gf2" and len(tokens) == 3 and tokens[1].isdigit() and tokens[2].isdigit():
                expect_rows, expect_cols = int(tokens[1]), int(tokens[2])
                header = ("rect",)
            else:
                raise ParseError("expected 'gf2sym n' or 'gf2 r c' header", lineno, 1)
            continue
        if len(rows) == expect_rows:
            raise ParseError("more rows than the header declares", lineno, 1)
        if len(line) != expect_cols:
            raise ParseError(
                "row has %d entries, expected %d" % (len(line), expect_cols), lineno, 1
            )
        value = 0
        for col, ch in enumerate(line):
            if ch == "1":
                value |= 1 << col
            elif ch != "0":
                raise ParseError("matrix entries must be 0 or 1", lineno, raw.index(line) + col + 1)
        rows.append(value)
    if header is None:
        raise ParseError("missing gf2 header line")
    if len(rows) != expect_rows:
        raise ParseError("expected %d rows, found %d" % (expect_rows, len(rows)))
    if header[0] == "sym":
        try:
            return Gf2SymmetricMatrix(tuple(rows))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return Gf2Matrix(tuple(rows), expect_cols)


def dump_gf2(matrix: Union[Gf2SymmetricMatrix, Gf2Matrix]) -> str:
    if isinstance(matrix, Gf2SymmetricMatrix):
        n = matrix.order
        lines = ["gf2sym %d" % n]
        cols = n
        rows = matrix.rows
    else:
        lines = ["gf2 %d %d" % (len(matrix.rows), matrix.cols)]
        cols = matrix.cols
        rows = matrix.rows
    for row in rows:
        lines.append("".join("1" if (row >> j) & 1 else "0" for j in range(cols)))
    return "\n".join(lines) + "\n"


def parse_rg(text: str) -> RibbonGraph:
    vertices: list[tuple[str, ...]] = []
    edges: list[RibbonEdge] = []
    for lineno, raw, line in _content_lines(text):
        if ":" not in line:
            raise ParseError("expected 'vertex: ...' or 'edge: ...'", lineno, 1)
        key, _, value = line.partition(":")
        key = key.strip()
        tokens = value.split()
        if key == "vertex":
            vertices.append(tuple(tokens))
        elif key == "edge":
            if len(tokens) != 4:
                raise ParseError("edge line needs 'label h1 h2 sign'", lineno, 1)
            label, h1, h2, sign = tokens
            if sign not in ("+", "-"):
                raise ParseError("edge sign must be '+' or '-'", lineno, raw.rfind(sign) + 1)
            edges.append(RibbonEdge(_label(label, lineno), (h1, h2), sign == "-"))
        else:
            raise ParseError("unknown key %r" % key, lineno, 1)
    try:
        return RibbonGraph(tuple(vertices), tuple(edges))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def dump_rg(graph: RibbonGraph) -> str:
    lines = []
    for rot in graph.vertices:
        lines.append("vertex: " + " ".join(rot))
    for e in graph.edges:
        lines.append("edge: %s %s %s %s" % (e.label, e.ends[0], e.ends[1], "-" if e.twisted else "+"))
    return "\n".join(lines) + "\n"
