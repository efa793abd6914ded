"""Braid words and their closure invariants.

Words live in the Artin generators: letter +k means the strand in position k
passes over position k+1 with a counterclockwise half twist, -k the inverse.
The closure invariants implemented here are the writhe homomorphism, the
Seifert form of the closed-braid surface, its exact integer signature, the
homogenization along powers, and the writhe-corrected signature combination
that vanishes on full twists.

Signatures are streamed: `signatures` reads a word once, eliminating each
basis loop of the Seifert form from the fraction-free Schur complement as
soon as its second band is read, and words that share a prefix share the
stream up to where they part.  The built form, `seifert_matrix` reduced by
`signature_of_form`, is the reference route beside it.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class CalibrationError(RuntimeError):
    """Signature sequence of the full twist failed to stabilize."""


class UncalibratedRatioError(ValueError):
    """s-combination evaluated without a ratio for this strand count."""


@dataclass(frozen=True)
class BraidWord:
    letters: tuple[int, ...] = ()
    n_strands: int = 2

    def __post_init__(self):
        if self.n_strands < 1:
            raise ValueError("need at least one strand")
        for l in self.letters:
            if l == 0 or abs(l) >= self.n_strands:
                raise ValueError(f"letter {l} invalid on {self.n_strands} strands")

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n_strands != other.n_strands:
            raise ValueError("strand counts differ")
        return BraidWord(self.letters + other.letters, self.n_strands)

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple(-l for l in reversed(self.letters)), self.n_strands)

    def power(self, k: int) -> "BraidWord":
        base = self if k >= 0 else self.inverse()
        return BraidWord(base.letters * abs(k), self.n_strands)

    def mirror(self) -> "BraidWord":
        return BraidWord(tuple(-l for l in self.letters), self.n_strands)

    def reduced(self) -> "BraidWord":
        return free_reduce(self)

    def to_text(self) -> str:
        return " ".join(str(l) for l in self.letters)

    @staticmethod
    def from_text(text: str, n_strands: int | None = None) -> "BraidWord":
        letters = tuple(int(tok) for tok in text.split())
        if n_strands is None:
            n_strands = max((abs(l) for l in letters), default=1) + 1
        return BraidWord(letters, n_strands)


def free_reduce(word: BraidWord) -> BraidWord:
    stack: list[int] = []
    for l in word.letters:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return BraidWord(tuple(stack), word.n_strands)


def writhe(word: BraidWord) -> int:
    """Exponent sum; the homomorphism taking value 1 on every generator."""
    return sum(1 if l > 0 else -1 for l in word.letters)


def permutation(word: BraidWord) -> tuple[int, ...]:
    """perm[i] = final position of the strand starting at position i (0-based)."""
    pos = list(range(word.n_strands))
    for l in word.letters:
        k = abs(l) - 1
        # strands currently at positions k, k+1 trade places
        a = pos.index(k)
        b = pos.index(k + 1)
        pos[a], pos[b] = pos[b], pos[a]
    return tuple(pos)


def is_pure(word: BraidWord) -> bool:
    return permutation(word) == tuple(range(word.n_strands))


def full_twist(n: int) -> BraidWord:
    """(s_1 s_2 ... s_{n-1})^n, the central full twist on n strands."""
    if n < 2:
        raise ValueError("full twist needs n >= 2")
    return BraidWord(tuple(range(1, n)) * n, n)


def random_word(rng: np.random.Generator, n_strands: int, length: int) -> BraidWord:
    idx = rng.integers(1, n_strands, size=length)
    sgn = rng.choice([-1, 1], size=length)
    return BraidWord(tuple(int(i * s) for i, s in zip(idx, sgn)), n_strands)


def seifert_matrix(word: BraidWord) -> np.ndarray:
    """Integer Seifert matrix of the word's closure, after free reduction.

    The surface is the braid-closure one: a disc per strand, a half-twisted
    band per letter.  Basis loops run between consecutive bands in the same
    generator column; for a connected closure there are letters - strands + 1
    of them.  They are listed by the word position of their first band, an
    order in which V + V^T is banded: a loop meets only the next loop of its
    column and at most two loops of the column to its right, all of which
    start near it in the word.  Entries follow the convention that makes the
    closure of s_1^2 the Hopf link with Seifert matrix (-1).
    """
    word = free_reduce(word)
    letters = word.letters
    columns: dict[int, list[int]] = {}
    for pos, l in enumerate(letters):
        columns.setdefault(abs(l), []).append(pos)
    second: dict[int, int] = {}  # first band of a loop -> its second band
    for bands in columns.values():
        second.update(zip(bands, bands[1:]))
    index = {a: x for x, a in enumerate(sorted(second))}
    ii: list[int] = []
    jj: list[int] = []
    vals: list[int] = []

    def put(i: int, j: int, v: int) -> None:
        ii.append(i)
        jj.append(j)
        vals.append(v)

    for a, x in index.items():
        b = second[a]
        sa = 1 if letters[a] > 0 else -1
        sb = 1 if letters[b] > 0 else -1
        put(x, x, -(sa + sb) // 2)
        y = index.get(b)
        if y is not None:
            # the next loop of the column shares the band at b
            if sb == 1:
                put(x, y, 1)
            else:
                put(y, x, -1)
        right = columns.get(abs(letters[a]) + 1)
        if right is None:
            continue
        # of the right column's bands strictly between a and b, the loop
        # leaving the last one and the loop entering the first interleave
        lo = bisect_right(right, a)
        hi = bisect_left(right, b) - 1
        if lo <= hi:
            if hi + 1 < len(right):
                put(x, index[right[hi]], 1)
            if lo > 0:
                put(x, index[right[lo - 1]], -1)
    V = np.zeros((len(index), len(index)), dtype=np.int64)
    V[ii, jj] = vals
    return V


def signature_of_form(sym: np.ndarray) -> int:
    """Signature of a symmetric integer matrix, exactly.

    Symmetric fraction-free (Bareiss) elimination in Python integers on the
    nonzeros of the upper triangle, one dict per row.  After pivot p_k the
    untouched entries of the remaining block are their step-s values times
    p_k / p_s, exactly, so a row is rescaled only when a pivot row reaches
    it: each row keeps the pivot level of its last update.  Each pivot
    contributes sign(p_k p_{k-1}).  A zero pivot is repaired by the
    congruence row/column k += +-row/column j for the nearest j with
    M[k, j] = b != 0, with the sign that makes 2b + M[j, j] (or -2b + M[j, j])
    nonzero; a row with no nonzero left is a radical direction and adds
    nothing.
    """
    m = sym.shape[0]
    if m == 0:
        return 0
    rows: list[dict[int, int]] = [{} for _ in range(m)]
    upper = np.triu(sym)
    ii, jj = np.nonzero(upper)
    for i, j, v in zip(ii.tolist(), jj.tolist(), upper[ii, jj].tolist()):
        rows[i][j] = int(v)
    level = [1] * m  # the pivot after which each row was last updated
    sig = 0
    prev = 1
    for k in range(m):
        lk = level[k]
        row = {j: v * prev // lk for j, v in rows[k].items() if v}
        p = row.pop(k, 0)
        if p == 0:
            if not row:
                continue  # radical direction
            j = min(row)
            b = row[j]
            lj = level[j]
            c = rows[j].get(j, 0) * prev // lj
            s = 1 if 2 * b + c else -1
            p = 2 * s * b + c
            # row k += s * row j over the columns i > k: M[j, i] is stored in
            # row i for k < i < j and in row j for i >= j (M[k, j] += s c)
            for i in range(k + 1, j):
                v = rows[i].get(j)
                if v:
                    row[i] = row.get(i, 0) + s * (v * prev // level[i])
            for i, v in rows[j].items():
                row[i] = row.get(i, 0) + s * (v * prev // lj)
        sig += 1 if (p > 0) == (prev > 0) else -1
        for i, bi in row.items():
            if not bi:
                continue
            ri, li = rows[i], level[i]
            new = {j: (p * (v * prev // li) - bi * row[j]) // prev if j in row
                   else v * p // li for j, v in ri.items()}
            for j, bj in row.items():
                if j >= i and j not in ri:
                    new[j] = -bi * bj // prev
            rows[i] = new
            level[i] = p
        prev = p
    return sig


class _SignatureStream:
    """Exact signature of the closure of a word read one letter at a time.

    The basis loops of the closed-braid surface are those of
    `seifert_matrix`, named by the word position of their first band, but
    every band opens a loop: a column's last one is dropped when the word
    ends, which is exact because an open loop is never a pivot or a repair
    partner.  A loop meets only loops that start no later than its second
    band, so when band q of column c closes loop x, opened at band a, x's
    row of M = V + V^T is complete: M[x, x] = -(s_a + s_q), the loop y
    opened at q has M[x, y] = s_q, and the open loop of column c - 1 (c + 1)
    has -1 (+1) if it opened after a.  Then x is eliminated (Haynsworth:
    sig M = sig(pivot) + sig(Schur complement)), first repaired by x += j
    if its pivot is zero and it meets a deferred loop j, or else deferred.

    `rows` holds the Schur complement on the loops still active, at most
    one open loop per column and the deferred ones, as fraction-free
    (Bareiss) integers: the Schur entries times `prev`, the last pivot.  An
    entry learned from M is added at that level.  Between letters the
    deferred loops meet only open loops: their block is zero.  An
    elimination changes that block by a rank-one term -u u^T / p, so the
    loops it reaches get nonzero pivots, and eliminating one of them makes
    the block zero again.  Once the open loops are dropped, the deferred
    ones are the radical, and `sig` is the signature of the word read so
    far.
    """

    __slots__ = ("rows", "cols", "signs", "deferred", "prev", "sig")

    def __init__(self, width: int):
        self.rows: dict[int, dict[int, int]] = {}  # symmetric, both halves
        self.cols = [-1] * (width + 2)  # open loop of each column, or -1
        self.signs = [0] * (width + 2)  # sign of that loop's first band
        self.deferred: list[int] = []
        self.prev = 1
        self.sig = 0

    def copy(self) -> "_SignatureStream":
        new = _SignatureStream.__new__(_SignatureStream)
        new.rows = {i: dict(r) for i, r in self.rows.items()}
        new.cols = list(self.cols)
        new.signs = list(self.signs)
        new.deferred = list(self.deferred)
        new.prev = self.prev
        new.sig = self.sig
        return new

    def feed(self, letters, start: int, stop: int) -> None:
        """Read letters[start:stop]; their positions name the loops."""
        rows, cols, signs = self.rows, self.cols, self.signs
        for q in range(start, stop):
            l = letters[q]
            c = l if l > 0 else -l
            s = 1 if l > 0 else -1
            a = cols[c]
            cols[c] = q
            if a < 0:
                rows[q] = {}
                signs[c] = s
                continue
            prev = self.prev
            rx = rows[a]
            rx[a] = rx.get(a, 0) - (signs[c] + s) * prev
            signs[c] = s
            rx[q] = s * prev
            rows[q] = {a: s * prev}
            for b, v in ((cols[c - 1], -prev), (cols[c + 1], prev)):
                if b > a:
                    v += rx.get(b, 0)
                    rx[b] = v
                    rows[b][a] = v
            self._close(a)

    def _close(self, x: int) -> None:
        """Eliminate x, whose row is final, or defer it."""
        rows, deferred = self.rows, self.deferred
        rx = rows[x]
        if not rx[x]:
            j = next((j for j in deferred if rx.get(j, 0)), None)
            if j is None:
                deferred.append(x)
                return
            # x += j: j is deferred, so M[j, j] = 0 and the pivot is 2 M[x, j]
            b = rx[j]
            for i, v in rows[j].items():
                if i != x:
                    rx[i] = rx.get(i, 0) + v
            rx[x] = 2 * b
            for i, v in rx.items():
                if i != x:
                    rows[i][x] = v
        self._eliminate(x)
        # the elimination changed the deferred block by a rank-one term;
        # eliminating one loop it reached makes the block zero again
        d = next((d for d in deferred if rows[d][d]), None)
        if d is not None:
            deferred.remove(d)
            self._eliminate(d)

    def _eliminate(self, k: int) -> None:
        """One Bareiss step on pivot k over every active row."""
        rows = self.rows
        rk = rows.pop(k)
        p = rk.pop(k)
        prev = self.prev
        self.sig += 1 if (p > 0) == (prev > 0) else -1
        for i, ri in rows.items():
            bi = ri.pop(k, 0)
            if bi:
                for j, bj in rk.items():
                    ri[j] = (p * ri.get(j, 0) - bi * bj) // prev
                for j, v in ri.items():
                    if j not in rk:
                        ri[j] = p * v // prev
            elif p != prev:
                for j, v in ri.items():
                    ri[j] = p * v // prev
        self.prev = p


def _common_prefix(a: tuple, b: tuple) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def signatures(words) -> list[int]:
    """Link signatures of the braid closures of several words, exactly.

    The longest word is streamed once (see _SignatureStream).  Wherever
    another word leaves it, the stream's state is copied and that word is
    finished from the copy, so words that share a prefix (the durations of
    one sampled loop, the powers of a word) share its cost.  No free
    reduction is needed: the signature is a link invariant.
    """
    words = list(words)
    if not words:
        return []
    longest = max(words, key=len).letters
    width = max((abs(l) for w in words for l in w.letters), default=0)
    cuts: dict[int, list[int]] = {}
    for k, w in enumerate(words):
        cuts.setdefault(_common_prefix(longest, w.letters), []).append(k)
    sigs = [0] * len(words)
    stream = _SignatureStream(width)
    pos = 0
    for cut in sorted(cuts):
        stream.feed(longest, pos, cut)
        pos = cut
        for k in cuts[cut]:
            letters = words[k].letters
            if len(letters) == cut:
                sigs[k] = stream.sig
            else:
                branch = stream.copy()
                branch.feed(letters, cut, len(letters))
                sigs[k] = branch.sig
    return sigs


def signature(word: BraidWord) -> int:
    """Link signature of the braid closure (exact integer arithmetic).

    Streamed along the word by `signatures`; signature_of_form of
    V + V^T, with V = seifert_matrix(word), is the reference route.
    """
    return signatures([word])[0]


@dataclass(frozen=True)
class HomogenizedValue:
    value: float
    sequence: tuple[tuple[int, float], ...]
    gap: float


def homogenized_signature(word: BraidWord, depth: int) -> HomogenizedValue:
    """Estimates lim signature(word^k)/k by the last term of the sequence."""
    if depth < 2:
        raise ValueError("homogenization depth must be >= 2")
    sigs = signatures([word.power(k) for k in range(1, depth + 1)])
    seq = [(k, sig / k) for k, sig in enumerate(sigs, 1)]
    gap = abs(seq[-1][1] - seq[-2][1])
    return HomogenizedValue(seq[-1][1], tuple(seq), gap)


_RATIO_CACHE: dict[int, Fraction] = {}
_RATIO_LOCK = threading.Lock()


def calibrate_ratio(n: int, depth: int = 6) -> Fraction:
    """Full-twist signature growth rate divided by the full twist's writhe.

    signature(full_twist(n)^k) is affine in k, so the rate is read off from
    the first repeated difference, exactly.  Cached per strand count.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    with _RATIO_LOCK:
        if n in _RATIO_CACHE:
            return _RATIO_CACHE[n]
    twist = full_twist(n)
    sigs = signatures([twist.power(k) for k in range(1, depth + 1)])
    diffs = [b - a for a, b in zip(sigs, sigs[1:])]
    rate = None
    for d_prev, d_next in zip(diffs, diffs[1:]):
        if d_prev == d_next:
            rate = d_next
            break
    if rate is None:
        raise CalibrationError(
            f"signature increments of the {n}-strand full twist did not "
            f"stabilize within depth {depth}: {sigs}")
    ratio = Fraction(rate, n * (n - 1))
    with _RATIO_LOCK:
        _RATIO_CACHE[n] = ratio
    return ratio


QM_KINDS = ("raw-signature", "s-combination")


@dataclass(frozen=True)
class QmOnBraids:
    """Choice of braid invariant fed to the flow averaging.

    kind "raw-signature" uses the plain closure signature; the flow-level
    slope in T removes the bounded discrepancy with the homogenization.
    kind "s-combination" additionally subtracts ratio * writhe, which kills
    the full-twist direction and so also the ambient rotation class.
    """

    kind: str = "s-combination"
    ratio: Fraction | None = None
    n_strands: int | None = None
    depth: int = 4
    homogenize: bool = False

    def __post_init__(self):
        if self.kind not in QM_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def _checked_ratio(self, word: BraidWord) -> Fraction:
        if self.kind == "raw-signature":
            return Fraction(0)
        if self.ratio is None or self.n_strands != word.n_strands:
            raise UncalibratedRatioError(
                f"ratio not calibrated for {word.n_strands} strands "
                f"(have n_strands={self.n_strands})")
        return self.ratio


def qm_for_strands(n: int, kind: str = "s-combination", depth: int = 4) -> QmOnBraids:
    ratio = calibrate_ratio(n) if kind == "s-combination" else None
    return QmOnBraids(kind=kind, ratio=ratio, n_strands=n, depth=depth)


def s_value(word: BraidWord, qm: QmOnBraids) -> float:
    """Homogenized signature minus ratio * writhe (writhe is homogeneous)."""
    ratio = qm._checked_ratio(word)
    if not word.letters:
        return 0.0
    hom = homogenized_signature(word, max(qm.depth, 2))
    return hom.value - float(ratio) * writhe(word)


def evaluate_word(word: BraidWord, qm: QmOnBraids) -> float:
    """The invariant the flow averaging integrates, per the qm settings.

    Without homogenize this is signature - ratio * writhe (ratio 0 for the
    raw kind); the bounded gap to the homogenized value drops out of any
    slope in the flow duration.
    """
    return evaluate_words([word], qm)[0]


def evaluate_words(words, qm: QmOnBraids) -> list[float]:
    """evaluate_word of each word, with one signature stream for all."""
    words = list(words)
    if qm.homogenize:
        return [s_value(word, qm) for word in words]
    ratios = [qm._checked_ratio(word) for word in words]
    return [float(Fraction(sig) - ratio * writhe(word))
            for word, ratio, sig in zip(words, ratios, signatures(words))]


def defect_estimate(n_strands: int, sampler, trials: int,
                    seed: int = 0, value_fn=None) -> float:
    """Empirical lower bound for the defect sup |r(xy) - r(x) - r(y)|."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if value_fn is None:
        value_fn = signature
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5eed)))
    worst = 0.0
    for _ in range(trials):
        x = sampler(rng, n_strands)
        y = sampler(rng, n_strands)
        d = abs(float(value_fn(x * y)) - float(value_fn(x)) - float(value_fn(y)))
        worst = max(worst, d)
    return worst
