"""Finitely described bi-infinite symbolic sequences and finite-horizon
evidence checkers for proximality and syndetic proximality.

The checkers return certificates, not truth values: a proximal witness is
a shift time at which two radius-n windows agree, a gap violation is an
agreement-free interval of prescribed length, and the only pairs reported
as provably distal are structural dual pairs, which differ at every
coordinate at every shift.  Limit statements about the underlying systems
are semi-decidable at best, and the verdict vocabulary keeps the
distinction between "proved" and "evidenced" explicit.

Both checkers read one scan, ``agreement_times``, which returns the
agreement times on [-H, H] as maximal runs.  It ANDs the letter-equality
mask over each window by doubling, ceil(log2(2n + 1)) bool passes, and
peaks at about 3 bytes per letter, the two segments included; the
verdicts cost O(runs) on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
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
        return hash((self.alphabet, tuple(sorted(self.rule.items()))))

    def expand(self, word: str) -> str:
        """The image of ``word``.  For a constant-length rule on an ASCII
        alphabet it is one 1-D gather of the images, each held as a single
        L-byte item, and one ASCII decode; a join otherwise."""
        table = self._image_table
        if table is None:
            return "".join(map(self.rule.__getitem__, word))
        try:
            return str(table.take(np.frombuffer(word.encode(), dtype=np.uint8)), "ascii")
        except UnicodeDecodeError:  # a row of 0xFF: a letter outside the rule
            raise KeyError(next(c for c in word if c not in self.rule)) from None

    def image_length(self, word: str) -> int:
        """len(self.expand(word)) for a word over the rule's letters,
        computed without expanding it."""
        table = self._image_table
        if table is None:
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
    """A bi-infinite sequence evaluable on any finite window.

    ``segment(lo, hi)`` returns the letters at coordinates lo..hi
    inclusive; ``window(n)`` is the block on [-n, n].  Windows are cut
    from memoized cores by slicing.  Every memoized growth (the shared
    substitution iterates, the shared Chacon blocks) happens under a lock,
    and cores only ever grow, so instances may be shared between threads.
    """

    alphabet: str = "01"

    def segment(self, lo: int, hi: int) -> str:
        raise NotImplementedError

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

    def canonical_key(self):
        return _tree(self.normalized().describe())


def _tree(obj):
    if isinstance(obj, dict):
        return tuple(sorted((k, _tree(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_tree(v) for v in obj)
    return obj


class SubstFixed(BiSeq):
    """A bi-infinite fixed point of a substitution, described by a seed
    pair l.r: the left half is the limit of the images of l (aligned to
    end at coordinate -1) and the right half the limit of the images of r
    (starting at coordinate 0).  Requires rule(l) to end with l and
    rule(r) to start with r, with strictly growing images."""

    def __init__(self, left_seed: str, right_seed: str, substitution: Substitution | None = None):
        sub = substitution or morse_square()
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

    def segment(self, lo: int, hi: int) -> str:
        if hi < lo:
            return ""
        need = max(-lo, hi + 1, 1)
        return _two_sided(_substitution_iterate(self.sub, self.left_seed, need),
                          _substitution_iterate(self.sub, self.right_seed, need), lo, hi)

    def describe(self) -> dict:
        return {
            "type": "substitution_fixed_point",
            "rule": dict(sorted(self.sub.rule.items())),
            "left_seed": self.left_seed,
            "right_seed": self.right_seed,
        }


_ITERATE_CACHE: dict[tuple[Substitution, str], list[str]] = {}
_ITERATE_LOCK = Lock()


def _substitution_iterate(sub: Substitution, letter: str, need: int) -> str:
    """The first iterate θ^k(letter) with at least ``need`` letters.  The
    iterates are shared by every fixed point of ``sub`` (one letter seeds
    a left half and a right half alike) and grow under a lock; an
    OverflowError, before expanding, if an image would pass the
    MAX_BLOCK_LENGTH-letter guard."""
    with _ITERATE_LOCK:
        iterates = _ITERATE_CACHE.setdefault((sub, letter), [letter])
        while len(iterates[-1]) < need:
            last = iterates[-1]
            if sub.image_length(last) > MAX_BLOCK_LENGTH:
                raise OverflowError(f"substitution image exceeds the {MAX_BLOCK_LENGTH}-letter guard")
            iterates.append(sub.expand(last))
        return next(w for w in iterates if len(w) >= need)


def _two_sided(left: str, right: str, lo: int, hi: int) -> str:
    """Coordinates lo..hi (empty when hi < lo) of the sequence that reads
    ``left`` up to coordinate -1 and ``right`` from coordinate 0 on."""
    head = left[len(left) + lo:len(left) + min(hi, -1) + 1] if lo < 0 else ""
    return head + right[max(lo, 0):hi + 1] if hi >= 0 else head


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

_BLOCK_CACHE: list[str] = ["0", "0010"]
_BLOCK_LOCK = Lock()


def chacon_block(k: int) -> str:
    """The k-th block of the rank-one tower coding: B_0 = 0, B_1 = 0010,
    B_{k+1} = B_k B_k 1 B_k, of length (3^{k+1} - 1) / 2."""
    if k < 0:
        raise ValueError("block index must be nonnegative")
    if (3 ** (k + 1) - 1) // 2 > MAX_BLOCK_LENGTH:
        raise OverflowError(f"block {k} exceeds the {MAX_BLOCK_LENGTH}-letter guard")
    with _BLOCK_LOCK:
        while len(_BLOCK_CACHE) <= k:
            b = _BLOCK_CACHE[-1]
            _BLOCK_CACHE.append(b + b + "1" + b)
        return _BLOCK_CACHE[k]


def _block_index_for(need: int) -> int:
    k = 0
    while (3 ** (k + 1) - 1) // 2 < need:
        k += 1
    return k


class ChaconPoint(BiSeq):
    """The two distinguished points of the Chacon subshift: x1 is the
    block limit read both ways across the origin, x2 the same with a
    single spacer 1 inserted at coordinate 0."""

    def __init__(self, kind: str):
        if kind not in ("x1", "x2"):
            raise ValueError("kind must be x1 or x2")
        self.kind = kind

    def segment(self, lo: int, hi: int) -> str:
        if hi < lo:
            return ""
        b = chacon_block(_block_index_for(max(-lo, hi + 1, 1) + 1))
        if self.kind == "x1":
            return _two_sided(b, b, lo, hi)
        # x2: the spacer at coordinate 0, then the block from coordinate 1 on
        return _two_sided(b, "1", lo, min(hi, 0)) + b[max(lo, 1) - 1:max(hi, 0)]

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
            offset = self._anchor_offset(len(self.prefix))
            if tail == 1:
                self._reduction = Shift(ChaconPoint("x1"), offset)
            else:
                rho = len(chacon_block(len(self.prefix))) - 1 - offset
                self._reduction = Shift(ChaconPoint("x1"), -(rho + 1))

    def _xi(self, k: int) -> int:
        return self.prefix[k] if k < len(self.prefix) else self.tail

    def _anchor_offset(self, k: int) -> int:
        """Offset of the innermost block's origin inside block k."""
        off = 0
        for j in range(k):
            step = self._xi(j)
            blen = len(chacon_block(j))
            if step == 2:
                off += blen
            elif step == 3:
                off += 2 * blen + 1
        return off

    def segment(self, lo: int, hi: int) -> str:
        if self._reduction is not None:
            return self._reduction.segment(lo, hi)
        if hi < lo:
            return ""
        for k in count(len(self.prefix)):
            off, b = self._anchor_offset(k), chacon_block(k)
            if -off <= lo and hi <= len(b) - 1 - off:
                return b[lo + off:hi + off + 1]

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


class EventuallyConstant(BiSeq):
    """A finite center word with constant fills on both sides."""

    def __init__(self, center: str, start: int = 0, left_fill: str = "0",
                 right_fill: str = "0", alphabet: str = "01"):
        if len(left_fill) != 1 or len(right_fill) != 1:
            raise ValueError("fills are single letters")
        bad = set(center + left_fill + right_fill) - set(alphabet)
        if bad:
            raise ValueError(f"letters {bad} outside alphabet {alphabet!r}")
        self.alphabet = alphabet
        self.center = center
        self.start = start
        self.left_fill = left_fill
        self.right_fill = right_fill

    def segment(self, lo: int, hi: int) -> str:
        a, b, c = lo - self.start, hi - self.start, self.center
        return (self.left_fill * (min(b, -1) - a + 1) + c[max(a, 0):max(b + 1, 0)]
                + self.right_fill * (b - max(a, len(c)) + 1))

    def describe(self) -> dict:
        return {
            "type": "eventually_constant",
            "center": self.center,
            "start": self.start,
            "left_fill": self.left_fill,
            "right_fill": self.right_fill,
        }

    def normalized(self) -> BiSeq:
        center, start = self.center, self.start
        while center and center[0] == self.left_fill:
            center, start = center[1:], start + 1
        while center and center[-1] == self.right_fill:
            center = center[:-1]
        if (center, start) == (self.center, self.start):
            return self
        return EventuallyConstant(center, start, self.left_fill, self.right_fill, self.alphabet)


class Shift(BiSeq):
    """The shifted sequence: value(i) = inner(i + k)."""

    def __init__(self, inner: BiSeq, k: int):
        self.inner = inner
        self.k = int(k)
        self.alphabet = inner.alphabet

    def segment(self, lo: int, hi: int) -> str:
        return self.inner.segment(lo + self.k, hi + self.k)

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

    def segment(self, lo: int, hi: int) -> str:
        return dual_word(self.inner.segment(lo, hi))

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
        if isinstance(inner, EventuallyConstant):
            return EventuallyConstant(
                dual_word(inner.center), inner.start,
                dual_word(inner.left_fill), dual_word(inner.right_fill), inner.alphabet,
            ).normalized()
        return Dual(inner)


class AdicImage(BiSeq):
    """The sliding mod-2 sum of adjacent coordinates of a binary sequence:
    value(i) = inner(i) + inner(i+1)."""

    def __init__(self, inner: BiSeq):
        if set(inner.alphabet) != {"0", "1"}:
            raise ValueError("the adjacent-sum factor needs a binary alphabet")
        self.inner = inner
        self.alphabet = "01"

    def segment(self, lo: int, hi: int) -> str:
        raw = np.frombuffer(self.inner.segment(lo, hi + 1).encode(), dtype=np.uint8)
        return ((raw[:-1] ^ raw[1:]) + ord("0")).tobytes().decode()

    def describe(self) -> dict:
        return {"type": "adjacent_sum", "inner": self.inner.describe()}

    def normalized(self) -> BiSeq:
        return AdicImage(self.inner.normalized())


def is_dual_pair(x: BiSeq, y: BiSeq) -> bool:
    """Structural proof that y is the 0/1 interchange of x; such pairs
    differ at every coordinate at every shift."""
    try:
        return Dual(x).normalized().canonical_key() == y.canonical_key()
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

    Memory: the pass holds 2 bytes per letter (the mask and its flips)
    once the segments are compared.  With the two segments included, the
    peak is 3 bytes per letter on the Morse and Chacon points (4 on the
    adjacent-sum factor, whose segment goes through an array), measured
    with tracemalloc at horizon 10^6, plus at most 32 bytes per run.
    """
    lo, hi = -horizon - n, horizon + n
    xa = np.frombuffer(x.segment(lo, hi).encode(), dtype=np.uint8)
    ya = np.frombuffer(y.segment(lo, hi).encode(), dtype=np.uint8)
    acc = np.zeros(xa.size + 2, dtype=bool)
    np.equal(xa, ya, out=acc[1:-1])
    del xa, ya  # the passes need only the mask
    width, span = 2 * n + 1, 1
    while 2 * span <= width:
        acc[:-span] &= acc[span:]  # numpy reads overlapping operands as if copied
        span *= 2
    agree = acc[:2 * horizon + 3]
    if span < width:
        agree &= acc[width - span:width - span + agree.size]
    flips = np.flatnonzero(agree[1:] != agree[:-1])
    return flips[0::2] - horizon, flips[1::2] - (horizon + 1)


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
