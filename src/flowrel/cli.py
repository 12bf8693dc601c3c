"""Command-line front door.

Commands:
  analyze <file>         full pipeline on a flow text document
  fuzz                   randomized theorem verification
  reproduce <example>    rerun a canonical scenario and diff its golden file
  classify-pair          evidence verdict for a pair of symbolic points

Reports are JSON with sorted keys; identical (config, seed) gives
byte-identical bytes.  analyze, fuzz and classify-pair write a report
piece by piece into stdout and the --out file (``emit``); reproduce diffs
the same writer's whole text (``dump``) with its golden file.  Each
command takes only the flags it reads: ``--format text`` on analyze,
``--out FILE`` on analyze, fuzz and classify-pair, ``--cap N`` on analyze
and fuzz.  ``--config FILE`` supplies defaults for any flag; explicit
flags win.  The closure cap of analyze and fuzz honors the
FLOWREL_ELEMENT_CAP environment variable; a cap that is not an integer of
at least 1, from any source, is a usage error.  An argv in exact form
(full flag names, no value starting with ``-``) is read directly from the
command table; any other argv goes to argparse, built from the same table.

Exit codes: 0 success, 1 failed checks or golden mismatch, 2 usage, parse,
unwritable --out or closed stdout error, 3 monoid too large.
"""

from __future__ import annotations

import difflib
import functools
import gc
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import reports
from .circles import CirclePoint, asymptotic_class, center, pair_class
from .finflow import FlowParseError, MonoidTooLarge, checked_cap, element_cap, parse_flow
from .fuzz import run_fuzz
from .relations import analyze_flow
from .subshift import (
    BiSeq,
    ChaconPoint,
    ChaconXi,
    ClassifyParams,
    Dual,
    EventuallyPeriodic,
    Shift,
    classify_pair,
    morse_fixed_points,
)
from .ternary import constant, sp_classify, ternary

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_TOO_LARGE = 3
DIGIT_CHUNK = 4  # digits per gather of ``_cell_digits``

Write = Callable[[str], object]  # a sink: takes each piece of a report's text, in order


def dump(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` and a newline, byte
    for byte: the writer that ``emit`` streams, run into one string.  json
    turns its C encoder off whenever ``indent`` is set, and its pure-Python
    one spends most of a large report on lists of ints, one per line.  This
    writer writes each non-empty 2-D integer ndarray with non-negative
    entries (monoid rows, relation pairs) in one array pass per row block
    (``_write_rows``), reads any other ndarray as its ``tolist()``, writes
    a witness map (``reports.RecordMap``) in one pass from its columns
    (``_write_record_map``), joins each list of ints, of strings, of int
    lists or of records in one pass (``_flat_list``) and each small record
    alone (``_small_record``: flat values, lists of them, small records),
    writes strings and keys with json's own C quoting function, None, True
    and False from a table, and leaves every other scalar to
    ``json.dumps``."""
    text = io.StringIO()
    _write(report, "\n", text.write)
    text.write("\n")
    return text.getvalue()


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float_text(value: float) -> str:
    """json's text of a float: its repr, or NaN and the infinities."""
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


# the text of each flat value by its type; bools are not ints here
_FLAT = {str: encode_basestring_ascii, int: int.__repr__, bool: _CONSTANTS.__getitem__,
         type(None): _CONSTANTS.__getitem__, float: _float_text}


def _write(value, newline: str, write: Write) -> None:
    inner = newline + "  "
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif type(value) is int:
        write(str(value))
    elif value is None or type(value) is bool:
        write(_CONSTANTS[value])
    elif isinstance(value, dict) and value:
        try:
            text = _small_record(value, newline)
        except (KeyError, TypeError):  # a value that is no small value, or a key that is no string
            pass
        else:
            write(text)
            return
        sep = "{" + inner
        for key, item in sorted(value.items()):
            write(sep + encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key)) + ": ")
            _write(item, inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(value, np.ndarray):
        if value.ndim == 2 and value.size and value.dtype.kind in "iu" and value.min() >= 0:
            _write_rows(value, newline, write)
        else:
            _write(value.tolist(), newline, write)
    elif isinstance(value, reports.RecordMap):
        _write_record_map(value, newline, write)
    elif isinstance(value, (list, tuple)) and value:
        text = _flat_list(value, newline)
        if text is not None:
            write(text)
            return
        sep = "[" + inner
        for item in value:
            write(sep)
            _write(item, inner, write)
            sep = "," + inner
        write(newline + "]")
    else:
        write(json.dumps(value))


def _flat_list(value: list | tuple, newline: str) -> str | None:
    """json's text at indent ``newline`` of a non-empty list whose items
    are all ints, all strings (a grid row, a list of labels), all lists of
    ints (partitions, ideals, idempotents), or all small records (the
    checks, the ternary and mt pairs, the cc asymptotics), each one
    ``_small_record`` text.  Each is one join.  None for any other
    list."""
    inner = newline + "  "
    deeper = inner + "  "
    kinds = set(map(type, value))
    if kinds == {int}:
        items = map(str, value)
    elif kinds == {str}:
        items = map(encode_basestring_ascii, value)
    elif kinds <= {list, tuple}:
        if not {int}.issuperset(map(type, chain.from_iterable(value))):
            return None
        items = ("[" + deeper + ("," + deeper).join(map(str, item)) + inner + "]" if item else "[]" for item in value)
    elif kinds == {dict}:
        try:
            items = [_small_record(item, inner) for item in value]
        except (KeyError, TypeError):  # a value that is no small value, or a key that is no string
            return None
    else:
        return None
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _small_record(value: dict, newline: str) -> str:
    """json's text at indent ``newline`` of a small record: a dict with
    string keys whose values are flat values, lists of flat values or
    small records (a classify-pair report, a symbolic report's
    ``params``, ``proximal``, ``x``), in one join; a KeyError or TypeError
    for any other dict."""
    if not value:
        return "{}"
    inner = newline + "  "
    cells = []
    for key, item in sorted(value.items()):
        kind = type(item)
        if kind is dict:
            text = _small_record(item, inner)
        elif kind is list or kind is tuple:
            text = ("[" + (inner + "  ") + ("," + inner + "  ").join(_FLAT[type(v)](v) for v in item) + inner + "]"
                    if item else "[]")
        else:
            text = _FLAT[kind](item)
        cells.append(encode_basestring_ascii(key) + ": " + text)
    return "{" + inner + ("," + inner).join(cells) + newline + "}"


def _write_record_map(value: reports.RecordMap, newline: str, write: Write) -> None:
    """json's text of a record map's plain form at indent ``newline``, from
    its columns.  json sorts the keys "x,y" as strings ("10,3" before
    "2,5"), and since "," sorts before every digit that is the order of
    (str(x), str(y)): one ``lexsort`` of the two pair columns' string
    orders (``_string_order``).  The sorted pairs and fields are then one
    table of cells, each record one row of ``_write_table``; a map with a
    negative entry is written as its ``tolist()``."""
    if not len(value.pairs):
        write("{}")
        return
    names = sorted(value.columns)
    xs, ys = value.pairs.T
    order = np.lexsort(_string_order(ys) + _string_order(xs))
    table = np.column_stack([value.pairs[order], *(value.columns[name][order] for name in names)])
    if table.min() < 0:
        _write(value.tolist(), newline, write)
        return
    inner = newline + "  "
    deeper = inner + "  "
    keys = [encode_basestring_ascii(name) + ": " for name in names]
    write("{")
    _write_table(table, [inner + '"', ",", '": {' + deeper + keys[0], *("," + deeper + key for key in keys[1:]),
                         inner + "},"], write)
    write(newline + "}")


def _string_order(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lexsort`` keys, the minor key first, that order non-negative
    integers as their decimal strings compare: by the digits scaled to the
    column's largest digit count W (``v * 10**(W - d)`` for d digits),
    then by d, since a string sorts after each of its proper prefixes."""
    width = len(str(int(values.max())))
    digits = np.searchsorted(10 ** np.arange(1, width), values, side="right") + 1
    return digits, values * 10 ** (width - digits)


@functools.cache
def _digit_table(width: int) -> np.ndarray:
    """One ``V{width}`` item of digit slots per number c below 10**width:
    item c holds c's ASCII digits with leading zeros, item 10**width + c
    the same with a zero byte in each leading position (c's text right-
    aligned, "0" for c = 0), and the last item zero bytes only.  An item
    is copied as one unit, which a gather of its bytes is not."""
    values = np.arange(10**width)[:, None]
    powers = 10 ** np.arange(width - 1, -1, -1)
    padded = (values // powers % 10 + 48).astype(np.uint8)
    leading = np.where((values < powers) & (powers > 1), np.uint8(0), padded)
    return np.vstack([padded, leading, np.zeros((1, width), dtype=np.uint8)]).view(f"V{width}")[:, 0]


def _cell_digits(block: np.ndarray, width: int) -> np.ndarray:
    """The digit slots of the non-negative entries of ``block``, each
    below 10**width, as ``V{width}`` items: its ASCII digits right-
    aligned, a zero byte in each leading position.  Up to four digits this
    is one ``take`` from ``_digit_table(width)``; a wider entry is taken
    four digits at a time, from the right, each chunk's item picked by
    whether the entry has digits above it (zeros kept), starts in it
    (zeros dropped) or ends below it (all zero bytes)."""
    if width <= DIGIT_CHUNK:
        return _digit_table(width)[10**width:].take(block)
    digits = np.empty((*block.shape, width), dtype=np.uint8)
    for low in range(0, width, DIGIT_CHUNK):
        w = min(DIGIT_CHUNK, width - low)
        index = (block // 10**low % 10**w).astype(np.intp)
        if low + w < width:
            index[block < 10 ** (low + w)] += 10**w  # no digits above: leading zeros dropped
        else:
            index += 10**w  # the top chunk
        if low:
            index[block < 10**low] = 2 * 10**w  # no digits here or above
        digits[..., width - low - w:width - low] = _digit_table(w).take(index)[..., None].view(np.uint8)
    return digits.view(f"V{width}")[..., 0]


def _block_rows(value: np.ndarray, row_bytes: int) -> int:
    """Rows per block of ``_write_table``: a block's text buffer holds no
    more bytes than the array itself, and at least one row."""
    return max(1, value.nbytes // row_bytes)


def _write_rows(value: np.ndarray, newline: str, write: Write) -> None:
    """json's text of a non-empty ``(rows, cols)`` array of non-negative
    integers at indent ``newline``: each row one row of ``_write_table``."""
    inner = newline + "  "
    deeper = inner + "  "
    write("[")
    _write_table(value, [inner + "[" + deeper, *["," + deeper] * (value.shape[1] - 1), inner + "],"], write)
    write(newline + "]")


def _write_table(value: np.ndarray, pieces: list[str], write: Write) -> None:
    """The text of every row of a non-empty ``(rows, cols)`` array of
    non-negative integers: ``pieces[0]``, then each cell's digits followed
    by the next of the ``cols`` further pieces, of which the last ends with
    a comma that the last row leaves out.

    Each cell gets W byte slots, W the digit count of the largest entry,
    in one row template.  A block of rows is the template broadcast over a
    uint8 buffer, and the cells' digits (``_cell_digits``) are written into
    their slots, right-aligned with a zero byte in each leading position,
    one assignment per run of columns whose slots lie one stride apart
    (all but the last column of an array); dropping the buffer's zero bytes
    leaves the block's text, decoded once."""
    rows, cols = value.shape
    width = len(str(int(value.max())))
    head, *gaps = (piece.encode() for piece in pieces)
    template = np.frombuffer(head + b"".join(bytes(width) + gap for gap in gaps), dtype=np.uint8)
    runs = []  # [first column, columns, offset of the first slot, stride]
    offset = len(head)
    for column, gap in enumerate(gaps):
        if runs and runs[-1][3] == width + len(gap):
            runs[-1][1] += 1
        else:
            runs.append([column, 1, offset, width + len(gap)])
        offset += width + len(gap)
    step = _block_rows(value, template.size)
    for lo in range(0, rows, step):
        block = value[lo:lo + step]
        buf = np.broadcast_to(template, (len(block), template.size)).copy()
        digits = _cell_digits(block, width)
        for first, count, start, stride in runs:
            slots = buf[:, start:start + count * stride].reshape(len(block), count, stride)[:, :, :width]
            slots.view(f"V{width}")[..., 0] = digits[:, first:first + count]
        if lo + step >= rows:
            buf[-1, -1] = 0  # no comma after the last row
        write(buf.tobytes().replace(b"\0", b"").decode("ascii"))


def emit(report: dict | str, out: str | None) -> bool:
    """Write the report's JSON text (``dump``'s bytes), or a text form as
    it is, to the ``--out`` path, when there is one, and to stdout.  Each
    piece goes out as the writer makes it, to the file and then to
    ``sys.stdout``, so no text of the whole report is ever held.  False,
    with an error line, when the path cannot be opened, and stdout is then
    empty; or when a write to the file or its close fails (a full disk),
    and stdout may then hold a prefix of the report.  An OSError from
    stdout itself propagates (``main`` turns a broken pipe into exit 2)."""
    stdout = sys.stdout.write
    if not out:
        _write_report(report, stdout)
        return True
    in_file = True  # whether an OSError now comes from the file, not stdout

    def write(piece: str) -> None:
        nonlocal in_file
        in_file = True
        sink.write(piece)
        in_file = False
        stdout(piece)

    try:
        with open(out, "w", encoding="utf-8") as sink:
            _write_report(report, write)
            in_file = True  # the close flushes the file's last piece
    except OSError as exc:
        if not in_file:
            raise
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return False
    return True


def _write_report(report: dict | str, write: Write) -> None:
    """A JSON report's text and a newline, or a text form as it is."""
    if isinstance(report, str):
        write(report)
    else:
        _write(report, "\n", write)
        write("\n")


# --------------------------------------------------------------------------
# point descriptor mini-language


def _shifted(rest: str, parse: Callable, shift: Callable):
    """``shift(parse(INNER), K)`` for the descriptor ``shift:K:INNER``,
    whose ``rest`` is ``K:INNER``; INNER is read before K."""
    k, _, inner = rest.partition(":")
    return shift(parse(inner), int(k))


def parse_morse_point(desc: str) -> BiSeq:
    head, _, rest = desc.partition(":")
    if head == "shift":
        return _shifted(rest, parse_morse_point, Shift)
    if head == "dual":
        return Dual(parse_morse_point(rest))
    pts = morse_fixed_points()
    if desc in pts:
        return pts[desc]
    raise ValueError(f"unknown point {desc!r}; use a|b|abar|bbar with shift:K:/dual: prefixes")


def parse_chacon_point(desc: str) -> BiSeq:
    head, _, rest = desc.partition(":")
    if head == "shift":
        return _shifted(rest, parse_chacon_point, Shift)
    if desc in ("x1", "x2"):
        return ChaconPoint(desc)
    if head == "xi":
        prefix, _, tail = rest.partition(":")
        digits = tuple(int(c) for c in prefix) if prefix else ()
        return ChaconXi(digits, int(tail))
    raise ValueError(f"unknown point {desc!r}; use x1|x2|xi:PREFIX:TAIL with shift:K: prefix")


def parse_ternary_point(desc: str) -> EventuallyPeriodic:
    head, _, rest = desc.partition(":")
    if head == "shift":
        return _shifted(rest, parse_ternary_point, EventuallyPeriodic.shifted)
    if head == "const":
        return constant(rest)
    if head == "pat":
        parts = rest.split(":")
        if len(parts) != 4:
            raise ValueError("pattern form is pat:CENTER:START:LEFT:RIGHT")
        center_word, start, left, right = parts
        return ternary(center_word, int(start), left, right)
    if desc in reports.TERNARY_SAMPLE:
        return ternary(*reports.TERNARY_SAMPLE[desc])
    raise ValueError(f"unknown point {desc!r}; use const:C, z, a sample name, or pat:...")


def parse_circle_point(desc: str) -> CirclePoint:
    if desc == "center":
        return center()
    parts = desc.split(":")
    if len(parts) != 3 or parts[0] not in ("C", "D"):
        raise ValueError("circle points are center, C:N:ANGLE or D:N:ANGLE")
    return CirclePoint(parts[0], int(parts[1]), float(parts[2]))


# --------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> int:
    try:
        flow = parse_flow(Path(args.flow_file).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        print(f"error: {args.flow_file} is not UTF-8 text ({exc})", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, FlowParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        ax = analyze_flow(flow, cap=args.cap)
        report = reports.flow_report(ax)
    except MonoidTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    if not emit(reports.flow_report_text(report) if args.format == "text" else report, args.out):
        return EXIT_PARSE
    failed = [c for c in report["checks"] if not c["pass"]]
    if failed:
        for c in failed:
            print(f"check failed: {c['name']}: {c['counterexample']}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_fuzz(args) -> int:
    try:
        summary = run_fuzz(args.count, args.seed, max_states=args.max_states, cap=args.cap)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not emit(summary, args.out):
        return EXIT_PARSE
    return EXIT_OK if not summary["failures"] else EXIT_CHECK_FAILED


def golden_path(example: str) -> Path:
    return Path(__file__).with_name("golden") / f"{example}.json"


def cmd_reproduce(args) -> int:
    builder = reports.REPRODUCERS.get(args.example)
    if builder is None:
        print(f"error: unknown example {args.example!r}", file=sys.stderr)
        return EXIT_PARSE
    report = builder()
    payload = dump(report)
    path = golden_path(args.example)
    if args.bless:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload, encoding="utf-8")
        print(f"blessed {path}")
        return EXIT_OK
    if not path.exists():
        print(f"error: no golden file for {args.example!r}; run with --bless first", file=sys.stderr)
        return EXIT_CHECK_FAILED
    expected = path.read_text(encoding="utf-8")
    if expected == payload:
        print(f"{args.example}: golden match")
        return EXIT_OK
    diff = difflib.unified_diff(
        expected.splitlines(keepends=True), payload.splitlines(keepends=True),
        fromfile=f"golden/{args.example}.json", tofile="computed",
    )
    sys.stdout.writelines(diff)
    return EXIT_CHECK_FAILED


def cmd_classify_pair(args) -> int:
    params = ClassifyParams(depth=args.depth, gap=args.gap, horizon=args.horizon)
    parse = {"morse": parse_morse_point, "chacon": parse_chacon_point,
             "ternary": parse_ternary_point, "cc": parse_circle_point}[args.system]
    try:
        x, y = parse(args.x), parse(args.y)
        if args.system in ("morse", "chacon"):
            rep = classify_pair(x, y, params)
            verdicts, labels = rep.as_json(), list(rep.labels)
        elif args.system == "ternary":
            verdict = sp_classify(x, y)
            verdicts, labels = {"verdicts": verdict.as_json()}, [verdict.label]
        else:
            pc = pair_class(x, y)
            verdicts = {"verdicts": {"pair": pc, "x_asymptotics": asymptotic_class(x).as_json(),
                                     "y_asymptotics": asymptotic_class(y).as_json()}}
            labels = [pc["label"]]
        report = {"schema": reports.SCHEMA, "kind": "pair_classification", "system": args.system,
                  "x": x.describe(), "y": y.describe(), "params": params.as_json(), "labels": labels, **verdicts}
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK if emit(report, args.out) else EXIT_PARSE


# --------------------------------------------------------------------------
# argument plumbing: one table of commands, their positionals and flags


@dataclass(frozen=True)
class Arg:
    """A flag ``--dest`` (``-`` for ``_``), or a command's positional.
    ``kind`` converts the value; a switch (``kind=None``) takes no value
    and stores True."""

    dest: str
    kind: Callable[[str], object] | None = str
    choices: tuple[str, ...] = ()
    required: bool = False
    help: str = ""

    @property
    def option(self) -> str:
        return "--" + self.dest.replace("_", "-")


@dataclass(frozen=True)
class Command:
    run: Callable[[SimpleNamespace], int]
    help: str
    flags: tuple[Arg, ...] = ()
    positional: Arg | None = None


DEFAULTS = {
    "count": 100,
    "seed": 1,
    "max_states": 6,
    "depth": ClassifyParams().depth,
    "gap": None,  # min(ClassifyParams().gap, horizon), set once the horizon is known
    "horizon": ClassifyParams().horizon,
    "format": "json",
    "out": None,
    "cap": None,
}

# JSON types a --config value may have, per flag (bool is not an integer
# here); the cap is checked by checked_cap
CONFIG_TYPES = {key: (int,) for key in ("count", "seed", "max_states", "depth", "gap", "horizon")}
CONFIG_TYPES.update(format=(str,), out=(str, type(None)))
FORMATS = ("json", "text")

CONFIG = Arg("config", help="JSON file supplying defaults for any flag")
OUT = Arg("out", help="also write the report to this path")
CAP = Arg("cap", int, help="monoid element cap override")
COMMANDS = {
    "analyze": Command(cmd_analyze, "full pipeline on a flow file",
                       (Arg("format", choices=FORMATS, help="report format (default json)"), OUT, CAP),
                       Arg("flow_file", help="flow text document")),
    "fuzz": Command(cmd_fuzz, "randomized theorem verification",
                    (Arg("count", int, help="number of random flows (default 100)"),
                     Arg("seed", int, help="random seed (default 1)"),
                     Arg("max_states", int, help="largest state count (default 6)"), OUT, CAP)),
    "reproduce": Command(cmd_reproduce, "rerun a canonical scenario against its golden file",
                         (Arg("bless", None, help="regenerate the golden file"),),
                         Arg("example", choices=tuple(sorted(reports.REPRODUCERS)), help="scenario name")),
    "classify-pair": Command(cmd_classify_pair, "evidence verdict for a pair of points", (
        Arg("system", required=True, choices=("morse", "chacon", "ternary", "cc"), help="symbolic system"),
        Arg("x", required=True, help="first point descriptor"),
        Arg("y", required=True, help="second point descriptor"),
        Arg("depth", int, help="window radius n (default 8)"),
        Arg("gap", int, help="gap bound of the syndetic check (default min(256, horizon))"),
        Arg("horizon", int, help="shift horizon H (default 4096)"), OUT)),
}


def parse_args(argv: list[str]) -> SimpleNamespace:
    """``flowrel [--config FILE] COMMAND ...``: the namespace holds
    ``config``, ``command``, the command's positional and each of its
    flags (None, or False for a switch, when not given).  An argv in exact
    form is read directly; every other argv (help, a prefix, a usage
    error) goes to argparse, built from the same table."""
    values = _read_exact(argv)
    return _argparse_args(argv) if values is None else SimpleNamespace(**values)


def _read_exact(argv: list[str]) -> dict | None:
    """The namespace of ``[--config F] COMMAND`` followed by full flag
    names, each with its value as the next token or after ``=``, switches
    and the command's one positional; None for any other argv: an unknown
    or abbreviated flag, a value that starts with ``-`` (``--`` and ``-h``
    among them), a value that ``kind`` or ``choices`` refuses, a missing
    or a surplus argument."""
    values: dict = {"config": None}
    flags, command, positional = {CONFIG.option: CONFIG}, None, None
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("-"):
            name, eq, value = token.partition("=")
            arg = flags.get(name)
            if arg is None or arg.kind is None and eq:
                return None
            if arg.kind is None:
                values[arg.dest] = True
                continue
            value = value if eq else next(tokens, "-")
        elif command is None:
            if token not in COMMANDS:
                return None
            command, values["command"] = COMMANDS[token], token
            flags = {arg.option: arg for arg in command.flags}
            values.update((arg.dest, False if arg.kind is None else None) for arg in command.flags)
            positional = command.positional  # None once filled
            continue
        elif positional:
            arg, value, positional = positional, token, None
        else:
            return None
        if value.startswith("-"):
            return None
        try:
            values[arg.dest] = arg.kind(value)
        except ValueError:
            return None
        if arg.choices and values[arg.dest] not in arg.choices:
            return None
    if command is None or positional or any(values[arg.dest] is None for arg in command.flags if arg.required):
        return None
    return values


def _argparse_args(argv: list[str]) -> SimpleNamespace:
    """``parse_args`` by argparse, on a parser built from ``COMMANDS``: its
    namespace, or its help text and exit 0, or its usage error and exit
    2."""
    import argparse

    top = argparse.ArgumentParser(prog="flowrel", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument(CONFIG.option, help=CONFIG.help)
    subparsers = top.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help, description=command.help)
        if command.positional:
            arg = command.positional
            sub.add_argument(arg.dest, type=arg.kind, choices=arg.choices or None, help=arg.help)
        for arg in command.flags:
            if arg.kind is None:
                sub.add_argument(arg.option, action="store_true", help=arg.help)
            else:
                sub.add_argument(arg.option, type=arg.kind, choices=arg.choices or None,
                                 required=arg.required, help=arg.help)
    return SimpleNamespace(**vars(top.parse_args(argv)))


def load_config(path: str) -> dict:
    """The --config file: a JSON object whose values have their flags'
    types, else a ValueError."""
    config = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise ValueError(f"config must be a JSON object, got {type(config).__name__}")
    for key, value in config.items():
        if key in CONFIG_TYPES and type(value) not in CONFIG_TYPES[key]:
            raise ValueError(f"config value {key}={value!r} has the wrong type for --{key.replace('_', '-')}")
    if config.get("format", "json") not in FORMATS:
        raise ValueError(f"config value format={config['format']!r} is not one of {', '.join(FORMATS)}")
    return config


def apply_config(args: SimpleNamespace) -> SimpleNamespace:
    config = load_config(args.config) if args.config else {}
    for key, fallback in DEFAULTS.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, config.get(key, fallback))
    if hasattr(args, "cap"):
        args.cap = element_cap() if args.cap is None else checked_cap(args.cap, "cap")
    if hasattr(args, "gap") and args.gap is None:
        args.gap = min(ClassifyParams().gap, args.horizon)
    return args


@functools.cache
def _freeze_imports() -> None:
    gc.freeze()


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  The first call of a
    process moves every object alive after the imports (numpy's and the
    package's) into the collector's permanent generation, so no collection
    inside a command walks them again; later calls freeze nothing.  A
    closed stdout (a broken pipe, met by a write or the final flush) is an
    error line and exit 2; any other OSError propagates."""
    _freeze_imports()
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        args = apply_config(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        code = COMMANDS[args.command].run(args)
        sys.stdout.flush()
    except BrokenPipeError as exc:  # stdout's reader has gone
        _drop(sys.stdout)
        try:
            print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        except BrokenPipeError:  # stderr is the same closed pipe (2>&1)
            _drop(sys.stderr)
        return EXIT_PARSE
    return code


def _drop(stream) -> None:
    """Point the stream's file descriptor at os.devnull, so that no later
    flush, the interpreter's last one included, meets the closed pipe
    again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, stream.fileno())
    finally:
        os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main())
