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
error.

Exit codes: 0 success, 1 failed checks or golden mismatch, 2 usage, parse or
unwritable --out error, 3 monoid too large.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from importlib import resources
from pathlib import Path

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
    Shift,
    classify_pair,
    morse_fixed_points,
)
from .ternary import TernarySeq, constant, sp_classify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_TOO_LARGE = 3

GOLDEN_PACKAGE = "flowrel.golden"


def dump(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` and a newline, byte
    for byte.  json turns its C encoder off whenever ``indent`` is set, and
    its pure-Python one spends most of a large report on lists of ints, one
    per line.  This writer writes each non-empty 2-D integer ndarray with
    non-negative entries (monoid rows, relation pairs) in one array pass
    per row block (``_write_rows``), reads any other ndarray as its
    ``tolist()``, joins each list whose items are all of type int (bools,
    which json writes as true/false, are not) in one pass, writes strings
    and keys with json's own C quoting function, and leaves every other
    scalar to ``json.dumps``."""
    out: list[str] = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    inner = newline + "  "
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif type(value) is int:
        out.append(str(value))
    elif isinstance(value, dict) and value:
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
    cannot be written."""
    if out:
        try:
            Path(out).write_text(payload, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return False
    sys.stdout.write(payload)
    return True


# --------------------------------------------------------------------------
# point descriptor mini-language


def parse_morse_point(desc: str) -> BiSeq:
    head, _, rest = desc.partition(":")
    if head == "shift":
        k, _, inner = rest.partition(":")
        return Shift(parse_morse_point(inner), int(k))
    if head == "dual":
        return Dual(parse_morse_point(rest))
    pts = morse_fixed_points()
    if desc in pts:
        return pts[desc]
    raise ValueError(f"unknown point {desc!r}; use a|b|abar|bbar with shift:K:/dual: prefixes")


def parse_chacon_point(desc: str) -> BiSeq:
    head, _, rest = desc.partition(":")
    if head == "shift":
        k, _, inner = rest.partition(":")
        return Shift(parse_chacon_point(inner), int(k))
    if desc in ("x1", "x2"):
        return ChaconPoint(desc)
    if head == "xi":
        prefix, _, tail = rest.partition(":")
        digits = tuple(int(c) for c in prefix) if prefix else ()
        return ChaconXi(digits, int(tail))
    raise ValueError(f"unknown point {desc!r}; use x1|x2|xi:PREFIX:TAIL with shift:K: prefix")


def parse_ternary_point(desc: str) -> TernarySeq:
    head, _, rest = desc.partition(":")
    if head == "shift":
        k, _, inner = rest.partition(":")
        return parse_ternary_point(inner).shifted(int(k))
    if head == "const":
        return constant(rest)
    if desc in reports.ternary_sample():
        return reports.ternary_sample()[desc]
    if head == "pat":
        parts = rest.split(":")
        if len(parts) != 4:
            raise ValueError("pattern form is pat:CENTER:START:LEFT:RIGHT")
        center_word, start, left, right = parts
        return TernarySeq(center_word, int(start), left, right)
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
    return Path(str(resources.files(GOLDEN_PACKAGE.rsplit(".", 1)[0]) / "golden" / f"{example}.json"))


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
# argument plumbing

DEFAULTS = {
    "count": 100,
    "seed": 1,
    "max_states": 6,
    "depth": 8,
    "gap": 256,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    top = argparse.ArgumentParser(prog="flowrel", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--config", help="JSON file supplying defaults for any flag")
    sub = top.add_subparsers(dest="command", required=True)

    def out_and_cap(p, cap=True):
        p.add_argument("--out", default=None, help="also write the report to this path")
        if cap:
            p.add_argument("--cap", type=int, default=None, help="monoid element cap override")

    p = sub.add_parser("analyze", help="full pipeline on a flow file")
    p.add_argument("flow_file")
    p.add_argument("--format", choices=FORMATS, default=None)
    out_and_cap(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fuzz", help="randomized theorem verification")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-states", dest="max_states", type=int, default=None)
    out_and_cap(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("reproduce", help="rerun a canonical scenario against its golden file")
    p.add_argument("example", choices=sorted(reports.REPRODUCERS))
    p.add_argument("--bless", action="store_true", help="regenerate the golden file")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("classify-pair", help="evidence verdict for a pair of points")
    p.add_argument("--system", required=True, choices=("morse", "chacon", "ternary", "cc"))
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--gap", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    out_and_cap(p, cap=False)
    p.set_defaults(func=cmd_classify_pair)
    return top


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


def apply_config(args: argparse.Namespace) -> argparse.Namespace:
    config = load_config(args.config) if args.config else {}
    for key, fallback in DEFAULTS.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, config.get(key, fallback))
    if hasattr(args, "cap"):
        args.cap = element_cap() if args.cap is None else checked_cap(args.cap, "cap")
    return args


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = apply_config(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
