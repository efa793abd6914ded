"""Closed configuration-space loops traced by a flow, and their braid data.

A loop is built from three segments: a short path from the base tuple to the
sampled tuple, the flow trace itself, and a short path back to base.  Past
the sampled `ConfigTuple` each segment is an array of chart coordinates, and
all angular quantities (winding, total variation, crossing counts, braid
letters) are computed from one shared set of samples per loop, treating the
piecewise-linear interpolation as the curve itself.

The short paths are straight chart chords, exact as two samples: every
point moves affinely along a chord, so every pair vector does too, and a
pair vector that misses the origin turns by less than pi and crosses any
line through the origin at most once.  Only the flow is refined: its exact
samples (`flow_engine.trajectory`) are bisected until no pair-angle step
exceeds DEFAULT_MAX_STEP, so each flow edge is a chord too short to cross a
projection line twice, and the polygon's combinatorics are the flow's.

The loops one sampled tuple traces under several flows or durations share
their start: `trace_words` builds the inbound path once, refines each flow
once up to its longest duration, and finds the crossings of that shared
part once per projection direction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .braid_algebra import BraidWord, permutation
from .chart_geometry import ChartPoint, sample_uniform_complex
from .flow_engine import FlowSpec, trajectory

DEFAULT_SEPARATION = 1e-9
DEFAULT_MAX_STEP = math.pi / 8
REFINE_CAP = 2 ** 20
DEFAULT_DIRECTION = complex(np.exp(1j * 0.7528431093))
DEFAULT_RETRIES = 16
_RETRY_TURN = 0.37311


class TraceRejection(Exception):
    """Sample hit a measure-zero degeneracy; caller should resample."""


class SeparationError(TraceRejection):
    """Tuple points closer than the separation threshold."""


class PathCollisionError(TraceRejection):
    """A segment passes through (or too near) a pairwise collision."""


class RefinementError(RuntimeError):
    """Angle refinement exceeded the sample cap without converging."""


class ExtractionError(RuntimeError):
    """No generic projection direction found within the retry budget."""


class DegenerateDirectionError(Exception):
    """Projection direction tangent or aligned for this loop; perturb it."""


@dataclass(frozen=True)
class ConfigTuple:
    points: tuple[ChartPoint, ...]

    def __post_init__(self):
        zs = [pt.require_finite() for pt in self.points]
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                if abs(zs[i] - zs[j]) <= DEFAULT_SEPARATION:
                    raise SeparationError(
                        f"points {i} and {j} are {abs(zs[i]-zs[j]):.3e} apart")

    @property
    def n(self) -> int:
        return len(self.points)

    def coords(self) -> np.ndarray:
        return np.array([p.coord for p in self.points], dtype=complex)


def tuple_from_coords(zs) -> ConfigTuple:
    return ConfigTuple(tuple(ChartPoint(complex(z)) for z in zs))


def base_tuple(n: int, eps: float = 0.1) -> ConfigTuple:
    """Roots-of-unity base configuration eps * e^(2*pi*i*k/n), k = 1..n."""
    if n < 1 or eps <= 0:
        raise ValueError("need n >= 1 and eps > 0")
    ks = np.arange(1, n + 1)
    return tuple_from_coords(eps * np.exp(2j * math.pi * ks / n))


def random_tuple(rng: np.random.Generator, n: int) -> ConfigTuple:
    """One draw of n independent round-measure points; may raise SeparationError."""
    return tuple_from_coords(sample_uniform_complex(rng, n))


@dataclass
class Segment:
    kind: str
    times: np.ndarray
    points: np.ndarray  # (len(times), n) complex


@functools.lru_cache(maxsize=16)
def _pair_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Strand indices (i, j), i < j, of every pair in row-major order.

    Cached, because np.triu_indices is slow next to the small arrays it
    indexes; the cached arrays are read-only.
    """
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _wrapped_steps(z: np.ndarray) -> np.ndarray:
    """Principal-value angle increments along axis 0 of a complex array."""
    ang = np.angle(z)
    d = ang[1:] - ang[:-1]
    return (d + math.pi) % (2.0 * math.pi) - math.pi


def _unwrapped(w: np.ndarray, start) -> np.ndarray:
    """Continuous angles of the columns of w, starting from `start`."""
    psi = np.empty(w.shape)
    psi[0] = start
    np.cumsum(_wrapped_steps(w), axis=0, out=psi[1:])
    psi[1:] += start
    return psi


def _refine(evaluate, times: np.ndarray, n: int) -> Segment:
    """Bisect the flow's sample times until all pair-angle steps are small."""
    i, j = _pair_columns(n)
    while True:
        pts = evaluate(times)
        if i.size == 0:
            return Segment("flow", times, pts)
        steps = np.abs(_wrapped_steps(pts[:, i] - pts[:, j]))
        bad = np.nonzero(steps.max(axis=1) > DEFAULT_MAX_STEP)[0]
        if bad.size == 0:
            return Segment("flow", times, pts)
        if times.size + bad.size > REFINE_CAP:
            raise RefinementError(
                f"flow segment needs more than {REFINE_CAP} samples")
        mids = 0.5 * (times[bad] + times[bad + 1])
        times = np.sort(np.concatenate([times, mids]))


def _check_separation(pts: np.ndarray):
    i, j = _pair_columns(pts.shape[1])
    closest = np.min(np.abs(pts[:, i] - pts[:, j]), axis=0, initial=np.inf)
    hit = np.nonzero(closest <= DEFAULT_SEPARATION)[0]
    if hit.size:
        k = hit[0]
        raise PathCollisionError(f"flow segment brings points {i[k]},{j[k]} "
                                 f"within {closest[k]:.3e}")


def short_path(za: np.ndarray, zb: np.ndarray) -> Segment:
    """Straight chart chords from za to zb, rejected on near-collisions.

    The path is exact as one edge: along the chords every pair vector is
    affine in s, so it turns by less than pi and crosses a projection line
    at most once, and needs no refinement.  Each pair's minimum distance
    over s in [0, 1] is checked in closed form.
    """
    if za.shape != zb.shape:
        raise ValueError("tuples have different sizes")
    i, j = _pair_columns(len(za))
    a0 = za[i] - za[j]
    d = (zb[i] - zb[j]) - a0
    dd = np.abs(d) ** 2
    s = np.divide(-(a0 * d.conjugate()).real, dd, out=np.zeros(dd.shape),
                  where=dd != 0.0)
    closest = np.abs(a0 + np.clip(s, 0.0, 1.0) * d)
    hit = np.nonzero(closest <= DEFAULT_SEPARATION)[0]
    if hit.size:
        k = hit[0]
        raise PathCollisionError(f"chords of points {i[k]},{j[k]} collide")
    return Segment("short", np.array([0.0, 1.0]), np.stack([za, zb]))


@dataclass
class LoopTrace:
    base: ConfigTuple
    spec: FlowSpec
    segments: tuple[Segment, ...]
    _pair_cache: dict = field(default_factory=dict, repr=False)
    _samples_cache: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.base.n

    def samples(self) -> np.ndarray:
        """All loop samples, junction duplicates dropped; closed exactly."""
        if self._samples_cache is None:
            parts = [self.segments[0].points]
            for seg in self.segments[1:]:
                parts.append(seg.points[1:])
            self._samples_cache = np.concatenate(parts, axis=0)
        return self._samples_cache

    def pair_angles(self, i: int, j: int) -> np.ndarray:
        """Unwrapped angle of z_i - z_j along the loop, in radians."""
        if i == j:
            raise ValueError("need two distinct strands")
        if (i, j) in self._pair_cache:
            return self._pair_cache[(i, j)]
        if (j, i) in self._pair_cache:
            psi = self._pair_cache[(j, i)] + math.pi
            self._pair_cache[(i, j)] = psi
            return psi
        z = self.samples()
        w = z[:, i] - z[:, j]
        psi = _unwrapped(w, math.atan2(w[0].imag, w[0].real))
        self._pair_cache[(i, j)] = psi
        return psi


def _flow_segment(spec: FlowSpec, zx: np.ndarray,
                  durations: np.ndarray) -> Segment:
    """The flow's trace from zx on [0, max(durations)], refined and checked.

    The flow is autonomous, so its trace up to any duration is a prefix of
    this one.  Every duration is on the initial grid and bisection only adds
    times, so each prefix ends exactly at its duration and meets the step
    criterion by itself.
    """
    rates = spec.angular_rate(np.abs(zx))
    spread = float(np.max(rates) - np.min(rates)) if len(zx) > 1 else 0.0
    fastest = float(np.max(np.abs(rates))) if len(zx) > 1 else 0.0
    t_max = float(durations[-1])
    steps = 4.0 * spread * t_max
    # A pair vector turns with its outer point, plus a term that stays within
    # a half turn, so the spread alone misses a rigid rotation, whose pairs
    # could turn whole turns per edge unseen.  Halving the 16 edges until no
    # point turns 0.4 turn per edge keeps every edge's pair turn from within
    # pi/8 of a whole turn, and keeps the grids nested.
    edges = 16
    while edges < min(2.5 * fastest * t_max, REFINE_CAP):
        edges *= 2
    if max(steps, edges) + 1 > REFINE_CAP:
        # refused before the initial grid is allocated
        raise RefinementError(
            f"flow segment needs more than {REFINE_CAP} samples")
    n_init = max(edges + 1, int(math.ceil(steps)) + 1)
    times = np.union1d(np.linspace(0.0, t_max, n_init), durations)
    seg = _refine(lambda ts: trajectory(spec, zx, ts), times, len(zx))
    _check_separation(seg.points)
    return seg


def _trace_legs(specs, x: ConfigTuple, base: ConfigTuple):
    """Inbound path, and per distinct flow (flow, [(k, index, outbound)]).

    Specs with the same components share one flow segment, refined to the
    longest of their durations.  The loop of specs[k] runs along it up to
    flow.times[index], its duration, and returns from there by outbound.
    The legs run on coordinate arrays: each outbound one starts at a flow
    sample, which `_check_separation` has already held apart.
    """
    za, zx = base.coords(), x.coords()
    inbound = short_path(za, zx)
    groups: dict = {}
    for k, spec in enumerate(specs):
        groups.setdefault(spec.components, []).append(k)
    flows = []
    for ks in groups.values():
        durations = np.unique([specs[k].duration for k in ks])
        flow = _flow_segment(specs[ks[0]], zx, durations)
        legs = []
        for k in ks:
            idx = int(np.searchsorted(flow.times, specs[k].duration))
            legs.append((k, idx, short_path(flow.points[idx], za)))
        flows.append((flow, legs))
    return inbound, flows


def build_loop(spec: FlowSpec, x: ConfigTuple, base: ConfigTuple) -> LoopTrace:
    """Chord in, refined flow trace, chord back; collision-checked."""
    inbound, [(flow, [(_k, _idx, outbound)])] = _trace_legs([spec], x, base)
    return LoopTrace(base, spec, (inbound, flow, outbound))


def trace_words(specs, x: ConfigTuple, base: ConfigTuple,
                omega: complex | None = None):
    """Braid word of the loop each spec traces from x, from one shared trace.

    Equal to [extract_braid(build_loop(spec, x, base), omega) for spec in
    specs] up to the spelling of each word, and rejected (TraceRejection)
    when any of those loops would be.  The inbound path is built
    once, the flow once per distinct set of components, and the crossing
    events of inbound path plus flow once per projection direction; only
    the outbound paths and their events are per spec.
    """
    inbound, flows = _trace_legs(specs, x, base)
    head = len(inbound.times) - 1
    words = [None] * len(specs)
    for flow, legs in flows:
        prefix = np.concatenate([inbound.points, flow.points[1:]])
        tails = [(head + idx, out.points[1:]) for _k, idx, out in legs]
        for (k, _idx, _out), word in zip(legs, _read_words(prefix, tails, omega)):
            words[k] = word
    return words


def winding(loop: LoopTrace, i: int, j: int) -> float:
    """Net turns of z_i - z_j around the loop; integer up to roundoff."""
    psi = loop.pair_angles(i, j)
    turns = (psi[-1] - psi[0]) / (2.0 * math.pi)
    if abs(turns - round(turns)) > 1e-6:
        raise RefinementError(
            f"closed-loop winding {turns} off an integer beyond tolerance")
    return float(turns)


def total_angular_variation(loop: LoopTrace, i: int, j: int) -> float:
    """Total variation of the pair angle, in turns; at least |winding|."""
    psi = loop.pair_angles(i, j)
    return float(np.sum(np.abs(np.diff(psi)))) / (2.0 * math.pi)


def crossing_counts(loop: LoopTrace, i: int, j: int,
                    omegas: np.ndarray) -> np.ndarray:
    """Number of loop times where (z_i - z_j)/|z_i - z_j| equals each omega.

    One pass over the edges for all directions at once.
    """
    psi = loop.pair_angles(i, j)
    chi = np.angle(omegas)
    lo = np.floor((psi[:-1, None] - chi[None, :]) / (2.0 * math.pi))
    hi = np.floor((psi[1:, None] - chi[None, :]) / (2.0 * math.pi))
    exact = (psi[:, None] - chi[None, :]) % (2.0 * math.pi) == 0.0
    if np.any(exact):
        raise DegenerateDirectionError("a sample aligns exactly with omega")
    return np.abs(hi - lo).sum(axis=0).astype(int)


def _ray_events(psi: np.ndarray, w: np.ndarray, chi: float):
    """Crossings of all pair vectors w (samples x pairs) over the line at chi.

    Returns (edge, fraction, pair, sign) arrays sorted by edge and fraction,
    where sign +1 means the pair angle psi was increasing (counterclockwise).
    """
    rel = (psi - chi) / math.pi
    if np.any(rel == np.round(rel)):
        raise DegenerateDirectionError("sample lies exactly on the ray")
    level = np.floor(rel)
    jump = np.diff(level, axis=0)
    edge, pair = np.nonzero(jump)
    if np.any(np.abs(jump[edge, pair]) != 1.0):  # straight edges cross once
        raise DegenerateDirectionError("multiple rays crossed in one edge")
    ray = np.exp(1j * (chi + math.pi * np.maximum(level[edge, pair],
                                                   level[edge + 1, pair])))
    ya = (w[edge, pair] / ray).imag
    yb = (w[edge + 1, pair] / ray).imag
    if np.any(ya == yb):
        raise DegenerateDirectionError("tangent edge")
    frac = ya / (ya - yb)
    sign = np.where(psi[edge + 1, pair] > psi[edge, pair], 1, -1)
    order = np.lexsort((frac, edge))
    return edge[order], frac[order], pair[order], sign[order]


def extract_braid(loop: LoopTrace, omega: complex | None = None):
    """Braid word of the loop from the projection along a generic direction.

    Strands are ordered by the projection coordinate; every adjacent swap
    emits one letter whose sign is the rotation sense of the pair (a full
    counterclockwise relative turn of two strands gives s_k s_k, matching the
    convention that the closure of s_1^2 is the positively linked Hopf link).
    Degenerate directions are retried with a deterministic turn.
    """
    z = loop.samples()
    return _read_words(z, [(len(z) - 1, z[:0])], omega)[0]


def _read_words(prefix: np.ndarray, tails, omega: complex | None):
    """Braid words of loops that share their first samples.

    Loop k is prefix[:cut + 1] followed by tail, for (cut, tail) = tails[k].
    The prefix's events are found once per direction, and a loop keeps those
    on edges before its cut.  A direction degenerate for one loop is retried
    for that loop alone; one degenerate anywhere on the prefix is retried
    for all.
    """
    n = prefix.shape[1]
    if n == 1:
        return [BraidWord((), 1)] * len(tails)
    strands = _pair_columns(n)
    w = prefix[:, strands[0]] - prefix[:, strands[1]]
    psi = _unwrapped(w, np.angle(w[0]))
    legs = []
    for cut, tail in tails:
        w_tail = np.concatenate([w[cut:cut + 1],
                                 tail[:, strands[0]] - tail[:, strands[1]]])
        legs.append((cut, w_tail, _unwrapped(w_tail, psi[cut])))
    words = [None] * len(tails)
    base_omega = DEFAULT_DIRECTION if omega is None else omega
    last_err: Exception | None = None
    for attempt in range(DEFAULT_RETRIES):
        om = base_omega * complex(np.exp(1j * _RETRY_TURN * attempt))
        om /= abs(om)
        chi = math.atan2(om.imag, om.real)
        try:
            order = _initial_order(prefix[0], om)
            shared = _ray_events(psi, w, chi)
        except DegenerateDirectionError as err:
            last_err = err
            continue
        for k, (cut, w_tail, psi_tail) in enumerate(legs):
            if words[k] is not None:
                continue
            try:
                own = _ray_events(psi_tail, w_tail, chi)
                keep = int(np.searchsorted(shared[0], cut))
                events = [np.concatenate((a[:keep], b)) for a, b
                          in zip(shared, (own[0] + cut,) + own[1:])]
                words[k] = _word_from_events(order, strands, *events)
            except DegenerateDirectionError as err:
                last_err = err
        if all(word is not None for word in words):
            return words
    raise ExtractionError(
        f"no generic projection direction in {DEFAULT_RETRIES} tries: {last_err}")


def _initial_order(z0: np.ndarray, om: complex) -> list[int]:
    positions = (z0 / om).imag
    if len(set(positions.tolist())) != len(z0):
        raise DegenerateDirectionError("projection ties at the base tuple")
    return [int(k) for k in np.argsort(positions)]


def _word_from_events(order: list[int], strands, edge, frac, pair, sign):
    """Walk the strand order through the sorted events, one letter each."""
    same = (edge[1:] == edge[:-1]) & (frac[1:] == frac[:-1])
    if np.any(same):
        raise DegenerateDirectionError("simultaneous crossings")
    n = len(order)
    position = [0] * n
    for k, strand in enumerate(order):
        position[strand] = k
    first, second = strands[0].tolist(), strands[1].tolist()
    letters = []
    for p, s in zip(pair.tolist(), sign.tolist()):
        i, j = first[p], second[p]
        pos_i, pos_j = position[i], position[j]
        if abs(pos_i - pos_j) != 1:
            raise DegenerateDirectionError("non-adjacent strands swapped")
        letters.append(s * (min(pos_i, pos_j) + 1))
        position[i], position[j] = pos_j, pos_i
    word = BraidWord(tuple(letters), n)
    if any(position[strand] != k for k, strand in enumerate(order)):
        raise DegenerateDirectionError("strand order did not close up")
    if permutation(word) != tuple(range(n)):
        raise ExtractionError("extracted word is not a pure braid")
    return word


def trace_rows(loop: LoopTrace) -> list[tuple]:
    """The loop samples as (segment, t, strand, re, im) rows."""
    return [(seg.kind, float(t), strand, float(z.real), float(z.imag))
            for seg in loop.segments
            for t, row in zip(seg.times, seg.points)
            for strand, z in enumerate(row)]
