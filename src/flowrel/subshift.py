"""Finitely described bi-infinite symbolic sequences and finite-horizon
evidence checkers for proximality and syndetic proximality.

The checkers return certificates, not truth values: a proximal witness is
a shift time at which two radius-n windows agree, a gap violation is an
agreement-free interval of prescribed length, and the only pairs reported
as provably distal are structural dual pairs, which differ at every
coordinate at every shift.  Limit statements about the underlying systems
are semi-decidable at best, and the verdict vocabulary keeps the
distinction between "proved" and "evidenced" explicit.

The substitution fixed points and the Chacon points hand out their
windows as pieces: read-only uint8 views, one ASCII byte per letter, of
their memoized cores (the substitution iterates and the Chacon blocks,
each held once as bytes), whose concatenation is the window; an
eventually periodic point (over "012", a point of the ternary full
shift) cuts its window from the center and the rolled tail periods.  Both
checkers read one scan, ``agreement_times``, which fills its
letter-equality mask with one comparison per overlap of the two pairs of
pieces, so no window is joined or decoded, and returns the
agreement times on [-H, H] as maximal runs.  It ANDs the mask over each
window by doubling, ceil(log2(2n + 1)) bool passes, and peaks at about 2
bytes per letter; the verdicts cost O(runs) on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from threading import Lock

import numpy as np

MAX_BLOCK_LENGTH = 10**7


@dataclass(frozen=True)
class Substitution:
    """A letter-to-word substitution on a finite alphabet."""

    alphabet: str
    rule: dict[str, str]

    def __post_init__(self):
        for c in self.alphabet:
            if c not in self.rule or not self.rule[c]:
                raise ValueError(f"substitution needs a nonempty image for {c!r}")
        for img in self.rule.values():
            if any(c not in self.alphabet for c in img):
                raise ValueError("substitution image leaves the alphabet")

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the alphabet and the sorted rule, computed once: every
        lookup of a shared iterate hashes the substitution."""
        return hash((self.alphabet, tuple(sorted(self.rule.items()))))

    def expand(self, word: str | bytes) -> str | bytes:
        """The image of ``word``.  For a constant-length rule on an ASCII
        alphabet it is one 1-D gather of the images, each held as a single
        L-byte item, and one ASCII decode; a join otherwise.  The ASCII
        bytes of a word over the rule's letters (a held iterate) give the
        bytes of its image, with no decode."""
        table = self._image_table
        if isinstance(word, bytes):
            if table is None:
                return self.expand(word.decode("ascii")).encode("ascii")
            return table.take(np.frombuffer(word, dtype=np.uint8)).tobytes()
        if table is None:
            return "".join(map(self.rule.__getitem__, word))
        try:
            return str(table.take(np.frombuffer(word.encode(), dtype=np.uint8)), "ascii")
        except UnicodeDecodeError:  # a row of 0xFF: a letter outside the rule
            raise KeyError(next(c for c in word if c not in self.rule)) from None

    def image_length(self, word: str | bytes) -> int:
        """len(self.expand(word)) for a word over the rule's letters,
        computed without expanding it."""
        table = self._image_table
        if table is None:
            word = word.decode("ascii") if isinstance(word, bytes) else word
            return sum(word.count(c) * len(w) for c, w in self.rule.items())
        return len(word) * table.itemsize

    @cached_property
    def _image_table(self) -> np.ndarray | None:
        """Item c, one V{L} item, holds the L bytes of rule[chr(c)], or L
        bytes 0xFF (no ASCII byte) when chr(c) has no image; None unless the
        rule maps exactly the alphabet's letters, all ASCII, to images of
        one length L."""
        lengths = {len(w) for w in self.rule.values()}
        if len(lengths) != 1 or set(self.rule) != set(self.alphabet) or not self.alphabet.isascii():
            return None
        length = lengths.pop()
        table = np.full((256, length), 0xFF, dtype=np.uint8)
        for c, w in self.rule.items():
            table[ord(c)] = np.frombuffer(w.encode(), dtype=np.uint8)
        return table.view(f"V{length}").reshape(256)

    @property
    def is_dual_closed(self) -> bool:
        """True when swapping 0 and 1 commutes with the substitution."""
        if set(self.alphabet) != {"0", "1"}:
            return False
        return all(dual_word(self.rule[c]) == self.rule[dual_word(c)] for c in "01")


def dual_word(word: str) -> str:
    return word.translate(str.maketrans("01", "10"))


def morse_square() -> Substitution:
    """The square of the binary Thue-Morse substitution: 0 -> 0110, 1 -> 1001."""
    return Substitution("01", {"0": "0110", "1": "1001"})


class BiSeq:
    """A bi-infinite sequence over ASCII letters, evaluable on any finite
    window.

    ``pieces(lo, hi)`` returns read-only uint8 arrays, one byte per
    letter, whose concatenation is the window of coordinates lo..hi
    inclusive (no letters when hi < lo); ``segment(lo, hi)`` is that
    window as a str and ``window(n)`` the block on [-n, n].  Each kind
    defines one of the two.  The substitution fixed points and the Chacon
    points hand out views of memoized cores, so no window is copied; an
    eventually periodic point cuts its window as a str, whose ASCII bytes
    are its one piece.  Every memoized growth (the shared substitution
    iterates, the shared Chacon blocks) happens under a lock, and cores
    only ever grow, so instances may be shared between threads.
    """

    alphabet: str = "01"

    def pieces(self, lo: int, hi: int) -> list[np.ndarray]:
        return [np.frombuffer(self.segment(lo, hi).encode("ascii"), dtype=np.uint8)]

    def segment(self, lo: int, hi: int) -> str:
        return b"".join(self.pieces(lo, hi)).decode("ascii")  # the pieces join as buffers, uncopied

    def window(self, n: int) -> str:
        if n < 0:
            raise ValueError("window radius must be nonnegative")
        return self.segment(-n, n)

    def at(self, i: int) -> str:
        return self.segment(i, i)

    def describe(self) -> dict:
        raise NotImplementedError

    def normalized(self) -> "BiSeq":
        return self


class SubstFixed(BiSeq):
    """A bi-infinite fixed point of a substitution, described by a seed
    pair l.r: the left half is the limit of the images of l (aligned to
    end at coordinate -1) and the right half the limit of the images of r
    (starting at coordinate 0).  Requires rule(l) to end with l and
    rule(r) to start with r, with strictly growing images."""

    def __init__(self, left_seed: str, right_seed: str, substitution: Substitution | None = None):
        sub = substitution or morse_square()
        if not sub.alphabet.isascii():
            raise ValueError("fixed points need an ASCII alphabet (one byte per letter)")
        if len(left_seed) != 1 or len(right_seed) != 1:
            raise ValueError("seeds are single letters")
        if not sub.rule[left_seed].endswith(left_seed) or len(sub.rule[left_seed]) < 2:
            raise ValueError(f"left seed {left_seed!r} is not extendable")
        if not sub.rule[right_seed].startswith(right_seed) or len(sub.rule[right_seed]) < 2:
            raise ValueError(f"right seed {right_seed!r} is not extendable")
        self.sub = sub
        self.alphabet = sub.alphabet
        self.left_seed = left_seed
        self.right_seed = right_seed

    def pieces(self, lo: int, hi: int) -> list[np.ndarray]:
        """A suffix of an iterate of the left seed for the coordinates
        below 0, a prefix of one of the right seed from 0 on."""
        if hi < lo:
            return []
        out = []
        if lo < 0:
            left = _substitution_iterate(self.sub, self.left_seed, -lo)
            out.append(np.frombuffer(left, dtype=np.uint8)[len(left) + lo:len(left) + min(hi, -1) + 1])
        if hi >= 0:
            right = _substitution_iterate(self.sub, self.right_seed, hi + 1)
            out.append(np.frombuffer(right, dtype=np.uint8)[max(lo, 0):hi + 1])
        return out

    def describe(self) -> dict:
        return {
            "type": "substitution_fixed_point",
            "rule": dict(sorted(self.sub.rule.items())),
            "left_seed": self.left_seed,
            "right_seed": self.right_seed,
        }


_ITERATE_CACHE: dict[tuple[Substitution, str], list[bytes | str]] = {}
_ITERATE_LOCK = Lock()


def _substitution_iterate(sub: Substitution, letter: str, need: int) -> bytes | str:
    """The first iterate θ^k(letter) with at least ``need`` letters, held
    as ASCII bytes (as str on a non-ASCII alphabet, which no fixed point
    uses).  The iterates are shared by every fixed point of ``sub`` (one
    letter seeds a left half and a right half alike) and grow under a
    lock; an OverflowError, before expanding, if an image would pass the
    MAX_BLOCK_LENGTH-letter guard."""
    with _ITERATE_LOCK:
        seed = letter.encode() if sub.alphabet.isascii() else letter
        iterates = _ITERATE_CACHE.setdefault((sub, letter), [seed])
        while len(iterates[-1]) < need:
            last = iterates[-1]
            if sub.image_length(last) > MAX_BLOCK_LENGTH:
                raise OverflowError(f"substitution image exceeds the {MAX_BLOCK_LENGTH}-letter guard")
            iterates.append(sub.expand(last))
        return next(w for w in iterates if len(w) >= need)


def morse_fixed_points() -> dict[str, SubstFixed]:
    """The four fixed points of the square substitution, keyed a, b, abar,
    bbar by their seed pairs 1.1, 0.1, 0.0, 1.0."""
    q = morse_square()
    return {
        "a": SubstFixed("1", "1", q),
        "b": SubstFixed("0", "1", q),
        "abar": SubstFixed("0", "0", q),
        "bbar": SubstFixed("1", "0", q),
    }


# --------------------------------------------------------------------------
# Chacon system

# The longest block grown so far, as ASCII bytes.  B_{k+1} = B_k B_k 1 B_k
# begins with B_k, so every shorter block is a prefix of it.
_BLOCK_CORE = b"0010"
_BLOCK_LOCK = Lock()
_SPACER = np.frombuffer(b"1", dtype=np.uint8)
# B_k in copies of B_{k-d} (True) and spacers (False), for d = 1 and 2
_BLOCK_PARTS = {1: (True, True, False, True)}
_BLOCK_PARTS[2] = _BLOCK_PARTS[1] * 2 + (False,) + _BLOCK_PARTS[1]


def _block_length(k: int) -> int:
    """|B_k| = (3^{k+1} - 1) / 2."""
    return (3 ** (k + 1) - 1) // 2


def chacon_block(k: int) -> str:
    """The k-th block of the rank-one tower coding: B_0 = 0, B_1 = 0010,
    B_{k+1} = B_k B_k 1 B_k, of length (3^{k+1} - 1) / 2."""
    if k < 0:
        raise ValueError("block index must be nonnegative")
    return _block_core(k)[:_block_length(k)].decode("ascii")


def _block_core(k: int) -> bytes:
    """The block core, grown under the lock until it holds B_k; an
    OverflowError, before growing, if B_k would pass the guard."""
    global _BLOCK_CORE
    if _block_length(k) > MAX_BLOCK_LENGTH:
        raise OverflowError(f"block {k} exceeds the {MAX_BLOCK_LENGTH}-letter guard")
    with _BLOCK_LOCK:
        while len(_BLOCK_CORE) < _block_length(k):
            b = _BLOCK_CORE
            _BLOCK_CORE = b"".join((b, b, b"1", b))
        return _BLOCK_CORE


def _block_index_for(need: int) -> int:
    k = 0
    while _block_length(k) < need:
        k += 1
    return k


def _block_pieces(k: int, a: int, b: int) -> list[np.ndarray]:
    """Letters a..b-1 of block k >= 1 as views of B_j, j = max(k - 2, 0),
    read through B_i = B_{i-1} B_{i-1} 1 B_{i-1} for i = k and, from
    k = 2 on, i = k - 1: so no block past B_{k-2}, a ninth of B_k, is
    grown."""
    j = max(k - 2, 0)
    core = np.frombuffer(_block_core(j), dtype=np.uint8)[:_block_length(j)]
    pieces, start = [], 0
    for part in _BLOCK_PARTS[k - j]:
        view = core if part else _SPACER
        if a < start + view.size and start < b:
            pieces.append(view[max(a - start, 0):b - start])
        start += view.size
    return pieces


class ChaconPoint(BiSeq):
    """The two distinguished points of the Chacon subshift: x1 is the
    block limit read both ways across the origin, x2 the same with a
    single spacer 1 inserted at coordinate 0."""

    def __init__(self, kind: str):
        if kind not in ("x1", "x2"):
            raise ValueError("kind must be x1 or x2")
        self.kind = kind

    def pieces(self, lo: int, hi: int) -> list[np.ndarray]:
        """The window read in block k + 1 = B_k B_k 1 B_k, |B_k| >= -lo and
        > hi: x1 has its origin at the start of the second B_k, x2 at the
        spacer."""
        if hi < lo:
            return []
        k = _block_index_for(max(-lo, hi + 1, 1))
        origin = _block_length(k) * (1 if self.kind == "x1" else 2)
        return _block_pieces(k + 1, lo + origin, hi + origin + 1)

    def describe(self) -> dict:
        return {"type": "chacon_point", "kind": self.kind}


class ChaconXi(BiSeq):
    """A Chacon point addressed by a block-nesting itinerary over
    {1, 2, 3}: at stage k the current block sits first, second or third
    inside the next one.  The origin anchors the innermost block.
    Itineraries that are eventually 1 or eventually 3 stop growing on one
    side and reduce to shifts of x1 (the completion without the extra
    spacer); all other itineraries define the point outright."""

    def __init__(self, prefix: tuple[int, ...], tail: int):
        if tail not in (1, 2, 3):
            raise ValueError("tail must be 1, 2 or 3")
        if any(v not in (1, 2, 3) for v in prefix):
            raise ValueError("itinerary entries must be 1, 2 or 3")
        self.prefix = tuple(prefix)
        self.tail = tail
        self._reduction: BiSeq | None = None
        if tail != 2:
            k = len(self.prefix)
            offset = next(islice(self._anchor_offsets(), k, None))
            if tail == 1:
                self._reduction = Shift(ChaconPoint("x1"), offset)
            else:
                rho = _block_length(k) - 1 - offset
                self._reduction = Shift(ChaconPoint("x1"), -(rho + 1))

    def _anchor_offsets(self):
        """Offset of the innermost block's origin inside block k, for
        k = 0, 1, 2, ..."""
        off = 0
        for k in count():
            yield off
            off += (0, _block_length(k), 2 * _block_length(k) + 1)[self._xi(k) - 1]

    def _xi(self, k: int) -> int:
        return self.prefix[k] if k < len(self.prefix) else self.tail

    def pieces(self, lo: int, hi: int) -> list[np.ndarray]:
        """The window read in the first block k >= 1 that holds it, as
        views of the block core (``_block_pieces``)."""
        if self._reduction is not None:
            return self._reduction.pieces(lo, hi)
        if hi < lo:
            return []
        for k, off in enumerate(self._anchor_offsets()):
            if k and -off <= lo and hi < _block_length(k) - off:
                return _block_pieces(k, lo + off, hi + off + 1)

    def describe(self) -> dict:
        d = {"type": "chacon_itinerary", "prefix": list(self.prefix), "tail": self.tail}
        if self._reduction is not None:
            d["reduces_to"] = self._reduction.describe()
        return d

    def normalized(self) -> BiSeq:
        if self._reduction is not None:
            return self._reduction.normalized()
        return self


# --------------------------------------------------------------------------
# Generic constructions


@dataclass(frozen=True)
class EventuallyPeriodic(BiSeq):
    """A center word anchored at ``start``, a period word repeating
    leftward before it and one repeating rightward after it, over an ASCII
    alphabet; period words are read left to right and anchored at the
    center boundary, so ``left`` ends at start - 1 and ``right`` begins
    at ``end``.  Over "012" these are the points of the ternary full
    shift, and ``describe`` gives the ternary golden's record."""

    center: str = ""
    start: int = 0
    left: str = "0"
    right: str = "0"
    alphabet: str = "01"

    def __post_init__(self):
        if not self.left or not self.right:
            raise ValueError("tail periods must be nonempty")
        if not self.alphabet.isascii():
            raise ValueError("periodic tails need an ASCII alphabet (one byte per letter)")
        bad = set(self.center + self.left + self.right) - set(self.alphabet)
        if bad:
            raise ValueError(f"letters {bad} outside alphabet {self.alphabet!r}")

    @property
    def end(self) -> int:
        """First coordinate after the center word."""
        return self.start + len(self.center)

    def segment(self, lo: int, hi: int) -> str:
        """Each tail's period rolled into the window's phase and repeated,
        around a slice of the center."""
        a, b, n = lo - self.start, hi - self.start, len(self.center)
        right_from = max(a, n)
        return (_cycle(self.left, a, min(b, -1) - a + 1) + self.center[max(a, 0):max(b + 1, 0)]
                + _cycle(self.right, right_from - n, b - right_from + 1))

    def shifted(self, k: int) -> "EventuallyPeriodic":
        """value'(i) = value(i + k)."""
        return EventuallyPeriodic(self.center, self.start - k, self.left, self.right, self.alphabet)

    def describe(self) -> dict:
        return {
            "type": "ternary" if self.alphabet == "012" else "eventually_periodic",
            "center": self.center,
            "start": self.start,
            "left_period": self.left,
            "right_period": self.right,
        }

    def normalized(self) -> BiSeq:
        """Center letters that continue a tail moved into it, the period
        rotated to stay anchored at the new boundary."""
        center, start, left, right = self.center, self.start, self.left, self.right
        while center and center[0] == left[0]:
            center, start, left = center[1:], start + 1, left[1:] + left[0]
        while center and center[-1] == right[-1]:
            center, right = center[:-1], right[-1] + right[:-1]
        return EventuallyPeriodic(center, start, left, right, self.alphabet)


def _cycle(period: str, phase: int, length: int) -> str:
    """Letters phase, phase + 1, ... of the period word read cyclically,
    ``length`` of them (none when length < 1)."""
    k = phase % len(period)
    return ((period[k:] + period[:k]) * -(-length // len(period)))[:max(length, 0)]


class Shift(BiSeq):
    """The shifted sequence: value(i) = inner(i + k)."""

    def __init__(self, inner: BiSeq, k: int):
        self.inner = inner
        self.k = int(k)
        self.alphabet = inner.alphabet

    def pieces(self, lo: int, hi: int) -> list[np.ndarray]:
        return self.inner.pieces(lo + self.k, hi + self.k)

    def describe(self) -> dict:
        return {"type": "shift", "by": self.k, "inner": self.inner.describe()}

    def normalized(self) -> BiSeq:
        inner = self.inner.normalized()
        k = self.k
        while isinstance(inner, Shift):
            k += inner.k
            inner = inner.inner
        if k == 0:
            return inner
        return Shift(inner, k)


class Dual(BiSeq):
    """0 and 1 interchanged everywhere (binary alphabets only)."""

    def __init__(self, inner: BiSeq):
        if set(inner.alphabet) != {"0", "1"}:
            raise ValueError("dual is only defined on the binary alphabet")
        self.inner = inner
        self.alphabet = inner.alphabet

    def pieces(self, lo: int, hi: int) -> list[np.ndarray]:
        """The inner pieces with each byte XORed with 1, which swaps the
        ASCII letters 0 and 1."""
        return [_read_only(piece ^ 1) for piece in self.inner.pieces(lo, hi)]

    def describe(self) -> dict:
        return {"type": "dual", "inner": self.inner.describe()}

    def normalized(self) -> BiSeq:
        inner = self.inner.normalized()
        if isinstance(inner, Dual):
            return inner.inner
        if isinstance(inner, Shift):
            return Shift(Dual(inner.inner), inner.k).normalized()
        if isinstance(inner, SubstFixed) and inner.sub.is_dual_closed:
            return SubstFixed(dual_word(inner.left_seed), dual_word(inner.right_seed), inner.sub)
        if isinstance(inner, EventuallyPeriodic):
            return EventuallyPeriodic(dual_word(inner.center), inner.start, dual_word(inner.left),
                                      dual_word(inner.right), inner.alphabet).normalized()
        return Dual(inner)


class AdicImage(BiSeq):
    """The sliding mod-2 sum of adjacent coordinates of a binary sequence:
    value(i) = inner(i) + inner(i+1)."""

    def __init__(self, inner: BiSeq):
        if set(inner.alphabet) != {"0", "1"}:
            raise ValueError("the adjacent-sum factor needs a binary alphabet")
        self.inner = inner
        self.alphabet = "01"

    def pieces(self, lo: int, hi: int) -> list[np.ndarray]:
        """One piece: the XOR of each inner letter with the next, as ASCII."""
        if hi < lo:
            return []
        raw = np.concatenate(self.inner.pieces(lo, hi + 1))
        return [_read_only((raw[:-1] ^ raw[1:]) + ord("0"))]

    def describe(self) -> dict:
        return {"type": "adjacent_sum", "inner": self.inner.describe()}

    def normalized(self) -> BiSeq:
        return AdicImage(self.inner.normalized())


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def is_dual_pair(x: BiSeq, y: BiSeq) -> bool:
    """Structural proof that y is the 0/1 interchange of x; such pairs
    differ at every coordinate at every shift."""
    try:
        return Dual(x).normalized().describe() == y.normalized().describe()
    except ValueError:
        return False


# --------------------------------------------------------------------------
# Evidence checkers


@dataclass(frozen=True)
class EvidenceVerdict:
    """A replayable finite-horizon verdict for one pair of sequences."""

    outcome: str
    depth: int
    horizon: int
    gap_bound: int | None = None
    witness_time: int | None = None
    interval: tuple[int, int] | None = None
    max_gap: int | None = None

    def as_json(self) -> dict:
        d = {"outcome": self.outcome, "depth": self.depth, "horizon": self.horizon,
             "gap_bound": self.gap_bound, "witness_time": self.witness_time,
             "interval": None if self.interval is None else list(self.interval),
             "max_gap": self.max_gap}
        return {k: v for k, v in d.items() if v is not None}


def agreement_times(x: BiSeq, y: BiSeq, n: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The shift times t in [-H, H] at which the radius-n windows of the
    two shifted sequences coincide, as maximal runs: sorted int64 arrays
    ``(starts, ends)``, inclusive, with a disagreeing time between any two
    runs.

    t agrees when all 2n + 1 letters of its window are equal, so the
    agreement mask is the AND of the letter-equality mask over windows of
    width w = 2n + 1.  Doubling ANDs the mask in place with itself shifted
    by 1, 2, 4, ..., until each entry covers the largest power of two
    s <= w; since AND is idempotent, the two spans at offsets 0 and w - s
    cover each window.  That is ceil(log2 w) bool passes over the
    2(H + n) + 1 letters and no counts.  A False entry padded at each end
    makes every run open and close with a flip of the mask.

    The mask is filled in place from the pieces of the two windows, one
    ``np.equal`` per overlap of a piece of x with a piece of y, so on the
    fixed points and the Chacon points, whose pieces are views of their
    cores, no window is copied.

    Memory: about 2 bytes per letter at the peak (the mask and its flips),
    measured with tracemalloc at horizon 10^6 on the Chacon points, plus
    at most 32 bytes per run; the pieces of a dual, an adjacent-sum image
    or an eventually periodic point are new arrays, one byte per letter,
    freed once the mask is set.
    """
    lo, hi = -horizon - n, horizon + n
    xs, ys = x.pieces(lo, hi), y.pieces(lo, hi)  # their letter guards run before the mask is spent
    acc = np.zeros(hi - lo + 3, dtype=bool)
    _equal_into(acc[1:-1], xs, ys)
    width, span = 2 * n + 1, 1
    while 2 * span <= width:
        acc[:-span] &= acc[span:]  # numpy reads overlapping operands as if copied
        span *= 2
    agree = acc[:2 * horizon + 3]
    if span < width:
        agree &= acc[width - span:width - span + agree.size]
    flips = np.flatnonzero(agree[1:] != agree[:-1])
    return flips[0::2] - horizon, flips[1::2] - (horizon + 1)


def _equal_into(out: np.ndarray, xs: list[np.ndarray], ys: list[np.ndarray]) -> None:
    """out[i] = (x[i] == y[i]), x and y the concatenations of the pieces
    ``xs`` and ``ys``, both out.size letters long."""
    xs, ys = iter(xs), iter(ys)
    a = b = out[:0]
    pos = 0
    while pos < out.size:
        while not a.size:
            a = next(xs)
        while not b.size:
            b = next(ys)
        m = min(a.size, b.size)
        np.equal(a[:m], b[:m], out=out[pos:pos + m])
        a, b, pos = a[m:], b[m:], pos + m


def _distal_verdict(x: BiSeq, y: BiSeq, n: int, horizon: int) -> EvidenceVerdict | None:
    """Validate depth and horizon; the proof of distality for a dual pair."""
    if n < 0 or horizon < 0:
        raise ValueError("depth and horizon must be nonnegative")
    return EvidenceVerdict("distal_at_all_shifts", n, horizon) if is_dual_pair(x, y) else None


def _check_gap_bound(gap_bound: int, horizon: int) -> None:
    if not (0 < gap_bound <= horizon):
        raise ValueError("need 0 < gap_bound <= horizon")


def _witness_verdict(runs: tuple[np.ndarray, np.ndarray], n: int, horizon: int) -> EvidenceVerdict:
    """The agreement time of smallest absolute value, positive preferred:
    the smaller of the first time >= 0 and the last time <= 0."""
    starts, ends = runs
    if starts.size == 0:
        return EvidenceVerdict("inconclusive", n, horizon)
    k = int(np.searchsorted(ends, 0))  # the first run that reaches t >= 0
    nearest = [max(int(starts[k]), 0)] if k < starts.size else []
    nearest += [int(ends[k - 1])] if k else []
    return EvidenceVerdict("proximal_witness", n, horizon,
                           witness_time=min(nearest, key=lambda t: (abs(t), t < 0)))


def _gap_verdict(runs: tuple[np.ndarray, np.ndarray], n: int, gap_bound: int,
                 horizon: int) -> EvidenceVerdict:
    """From the agreement runs on [-H, H]: the first stretch of
    ``gap_bound`` shifts free of agreement, or else the largest gap
    between consecutive agreement times."""
    starts, ends = runs
    lefts = np.concatenate(([-horizon - 1], ends))
    gaps = np.concatenate((starts, [horizon + 1])) - lefts
    hits = np.flatnonzero(gaps > gap_bound)
    if hits.size:
        start = int(lefts[hits[0]]) + 1
        return EvidenceVerdict("gap_violation", n, horizon, gap_bound=gap_bound,
                               interval=(start, start + gap_bound - 1))
    max_gap = int(gaps[1:-1].max()) if starts.size > 1 else 1
    return EvidenceVerdict("syndetic_up_to_horizon", n, horizon, gap_bound=gap_bound,
                           max_gap=max_gap)


@dataclass(frozen=True)
class ClassifyParams:
    depth: int = 8
    gap: int = 256
    horizon: int = 4096

    def as_json(self) -> dict:
        return {"depth": self.depth, "gap": self.gap, "horizon": self.horizon}


@dataclass(frozen=True)
class PairReport:
    x: dict
    y: dict
    params: ClassifyParams
    proximal: EvidenceVerdict
    syndetic: EvidenceVerdict | None
    labels: tuple[str, ...]

    def as_json(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "params": self.params.as_json(),
            "proximal": self.proximal.as_json(),
            "syndetic": self.syndetic.as_json() if self.syndetic else None,
            "labels": list(self.labels),
        }


def classify_pair(x: BiSeq, y: BiSeq, params: ClassifyParams = ClassifyParams()) -> PairReport:
    """Bundle witness scan, gap scan and dual detection into one verdict.

    Labels: proven-D for structural dual pairs; evidence-P when a witness
    exists, plus evidence-not-SP when the agreement times also violate the
    gap bound; inconclusive otherwise.  Nothing stronger than the computed
    evidence is ever claimed.

    One ``agreement_times`` scan serves both verdicts: the witness is read
    from the runs on either side of t = 0, the gap verdict from the gaps
    between consecutive runs and the two ends of [-H, H].
    """
    proof = _distal_verdict(x, y, params.depth, params.horizon)
    if proof is not None:
        return PairReport(x.describe(), y.describe(), params, proof, None, ("proven-D",))
    _check_gap_bound(params.gap, params.horizon)
    runs = agreement_times(x, y, params.depth, params.horizon)
    pw = _witness_verdict(runs, params.depth, params.horizon)
    syn = _gap_verdict(runs, params.depth, params.gap, params.horizon)
    labels: list[str] = []
    if pw.outcome == "proximal_witness":
        labels.append("evidence-P")
        if syn.outcome == "gap_violation":
            labels.append("evidence-not-SP")
    else:
        labels.append("inconclusive")
    return PairReport(x.describe(), y.describe(), params, pw, syn, tuple(labels))
