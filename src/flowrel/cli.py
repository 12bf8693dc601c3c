"""Command-line front door.

Commands:
  analyze <file>         full pipeline on a flow text document
  fuzz                   randomized theorem verification
  reproduce <example>    rerun a canonical scenario and diff its golden file
  classify-pair          evidence verdict for a pair of symbolic points

Reports are JSON with sorted keys; identical (config, seed) gives
byte-identical bytes.  Each command takes only the flags it reads:
``--format text`` on analyze, ``--out FILE`` on analyze, fuzz and
classify-pair, ``--cap N`` on analyze and fuzz.  ``--config FILE``
supplies defaults for any flag; explicit flags win.  The closure cap of
analyze and fuzz honors the FLOWREL_ELEMENT_CAP environment variable; a
cap that is not an integer of at least 1, from any source, is a usage
error.  An argv in exact form (full flag names, no value starting with
``-``) is read directly from the command table; any other argv goes to
argparse, built from the same table.

Exit codes: 0 success, 1 failed checks or golden mismatch, 2 usage, parse or
unwritable --out error, 3 monoid too large.
"""

from __future__ import annotations

import difflib
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from itertools import chain
from operator import itemgetter
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
EMIT_SLICE = 1 << 20  # characters per write of ``emit``


def dump(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` and a newline, byte
    for byte.  json turns its C encoder off whenever ``indent`` is set, and
    its pure-Python one spends most of a large report on lists of ints, one
    per line.  This writer writes each non-empty 2-D integer ndarray with
    non-negative entries (monoid rows, relation pairs) in one array pass
    per row block (``_write_rows``), reads any other ndarray as its
    ``tolist()``, joins each list whose items are all of type int (bools,
    which json writes as true/false, are not) in one pass, writes a dict of
    records (the witness maps) in one pass (``_write_records``), writes
    strings and keys with json's own C quoting function, None, True and
    False from a table, and leaves every other scalar to ``json.dumps``."""
    out: list[str] = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write(value, newline: str, out: list[str]) -> None:
    inner = newline + "  "
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif type(value) is int:
        out.append(str(value))
    elif value is None or type(value) is bool:
        out.append(_CONSTANTS[value])
    elif isinstance(value, dict) and value:
        # most dicts are no record maps, which their first value shows
        if type(next(iter(value.values()))) is not dict or not _write_records(value, newline, out):
            sep = "{" + inner
            for key, item in sorted(value.items()):
                out.append(sep + encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key)) + ": ")
                _write(item, inner, out)
                sep = "," + inner
            out.append(newline + "}")
    elif isinstance(value, np.ndarray):
        if value.ndim == 2 and value.size and value.dtype.kind in "iu" and value.min() >= 0:
            _write_rows(value, newline, out)
        else:
            _write(value.tolist(), newline, out)
    elif isinstance(value, (list, tuple)) and value and {int}.issuperset(map(type, value)):
        out.append("[" + inner + ("," + inner).join(map(str, value)) + newline + "]")
    elif isinstance(value, (list, tuple)) and value:
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def _write_records(value: dict, newline: str, out: list[str]) -> bool:
    """json's text of a dict at indent ``newline`` whose keys are strings
    and whose values are dicts with one and the same non-empty tuple of
    string fields, each mapped to an int (the witness maps, one record per
    pair), in one pass: the keys are sorted once, each field is read as a
    column, and every record is one %-format of one template.  False, with
    nothing written, for any other dict."""
    keys = sorted(value)
    records = [value[key] for key in keys]
    if not ({str}.issuperset(map(type, keys)) and {dict}.issuperset(map(type, records))):
        return False
    shapes = set(map(tuple, records))
    fields = shapes.pop()
    if shapes or not fields or not {str}.issuperset(map(type, fields)):
        return False
    names = sorted(fields)
    columns = [list(map(itemgetter(name), records)) for name in names]
    if not {int}.issuperset(map(type, chain.from_iterable(columns))):
        return False
    inner = newline + "  "
    deeper = inner + "  "
    body = ("," + deeper).join(encode_basestring_ascii(name).replace("%", "%%") + ": %d" for name in names)
    template = "%s: {" + deeper + body + inner + "}"
    rows = zip(map(encode_basestring_ascii, keys), *columns)
    out.append("{" + inner + ("," + inner).join(map(template.__mod__, rows)) + newline + "}")
    return True


def _block_rows(value: np.ndarray, row_bytes: int) -> int:
    """Rows per block of ``_write_rows``: a block's text buffer holds no
    more bytes than the array itself, and at least one row."""
    return max(1, value.nbytes // row_bytes)


def _write_rows(value: np.ndarray, newline: str, out: list[str]) -> None:
    """json's text of a non-empty ``(rows, cols)`` array of non-negative
    integers at indent ``newline``.

    Each cell gets W byte slots, W the digit count of the largest entry,
    in one row template of json's brackets, commas and indents.  A block
    of rows is the template broadcast over a uint8 buffer; each cell's
    digits are written right-aligned, ``(v // 10**c) % 10 + 48``, with a
    zero byte in each leading position, and the buffer's nonzero bytes
    are the block's text, decoded once."""
    inner = newline + "  "
    deeper = inner + "  "
    rows, cols = value.shape
    width = len(str(int(value.max())))
    sep = ("," + deeper).encode()
    head = (inner + "[" + deeper).encode()
    template = np.frombuffer(head + sep.join([bytes(width)] * cols) + (inner + "],").encode(), dtype=np.uint8)
    stride = width + len(sep)
    step = _block_rows(value, template.size)
    out.append("[")
    for lo in range(0, rows, step):
        block = value[lo:lo + step]
        buf = np.broadcast_to(template, (len(block), template.size)).copy()
        for c in range(width):
            digits = block % 10 + 48
            if c:
                digits[block == 0] = 0  # a leading position: the entry is below 10**c
            start = len(head) + width - 1 - c
            buf[:, start:start + cols * stride:stride] = digits
            block = block // 10
        if lo + step >= rows:
            buf[-1, -1] = 0  # no comma after the last row
        out.append(buf[buf != 0].tobytes().decode("ascii"))
    out.append(newline + "]")


def emit(payload: str, out: str | None) -> bool:
    """Write ``payload`` to the ``--out`` path, when there is one, and to
    stdout; False, with an error line and nothing on stdout, when the path
    cannot be written.  Both are written in slices of ``EMIT_SLICE``
    characters, so no encoded copy of the whole payload is ever held."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as sink:
                _write_slices(payload, sink)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return False
    _write_slices(payload, sys.stdout)
    return True


def _write_slices(payload: str, sink) -> None:
    for lo in range(0, len(payload), EMIT_SLICE):
        sink.write(payload[lo:lo + EMIT_SLICE])


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
    sample = reports.ternary_sample()
    if desc in sample:
        return sample[desc]
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
    if not emit(reports.flow_report_text(report) if args.format == "text" else dump(report), args.out):
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
    if not emit(dump(summary), args.out):
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
    try:
        if args.system in ("morse", "chacon"):
            parser = parse_morse_point if args.system == "morse" else parse_chacon_point
            x, y = parser(args.x), parser(args.y)
            rep = classify_pair(x, y, params)
            report = {"schema": reports.SCHEMA, "kind": "pair_classification",
                      "system": args.system, **rep.as_json()}
        elif args.system == "ternary":
            x, y = parse_ternary_point(args.x), parse_ternary_point(args.y)
            verdict = sp_classify(x, y)
            report = {
                "schema": reports.SCHEMA, "kind": "pair_classification",
                "system": "ternary", "x": x.describe(), "y": y.describe(),
                "params": params.as_json(), "verdicts": verdict.as_json(),
                "labels": [verdict.label],
            }
        elif args.system == "cc":
            x, y = parse_circle_point(args.x), parse_circle_point(args.y)
            pc = pair_class(x, y)
            report = {
                "schema": reports.SCHEMA, "kind": "pair_classification",
                "system": "cc", "x": x.describe(), "y": y.describe(),
                "params": params.as_json(), "verdicts": {
                    "pair": pc,
                    "x_asymptotics": asymptotic_class(x).as_json(),
                    "y_asymptotics": asymptotic_class(y).as_json(),
                },
                "labels": [pc["label"]],
            }
        else:
            print(f"error: unknown system {args.system!r}", file=sys.stderr)
            return EXIT_PARSE
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK if emit(dump(report), args.out) else EXIT_PARSE


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
    "depth": 8,
    "gap": None,  # min(DEFAULT_GAP, horizon), set once the horizon is known
    "horizon": 4096,
    "format": "json",
    "out": None,
    "cap": None,
}

# JSON types a --config value may have, per flag (bool is not an integer
# here); the cap is checked by checked_cap
CONFIG_TYPES = {key: (int,) for key in ("count", "seed", "max_states", "depth", "gap", "horizon")}
CONFIG_TYPES.update(format=(str,), out=(str, type(None)))
FORMATS = ("json", "text")
DEFAULT_GAP = 256

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
        args.gap = min(DEFAULT_GAP, args.horizon)
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        args = apply_config(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return COMMANDS[args.command].run(args)


if __name__ == "__main__":
    raise SystemExit(main())
