"""Independent reference computations used to pin expected test values.

Everything here is deliberately written from first principles, avoiding the
package's own algorithms, so tests compare two unrelated routes:

* torus_link_signature: lattice-point count for the signature of the closure
  of (s_1 ... s_{p-1})^q, from the classical eigenvalue description of the
  intersection form of the Brieskorn fiber x^p + y^q.
* float_signature: eigenvalue-sign count of V + V^T in floating point.
* dense_signature, seifert_matrix_by_column: the dense int64/object-array
  reducer and the column-ordered all-pairs Seifert builder, beside the
  package's banded reducer in Python integers and one-pass band-order
  builder.
* binomial_slope: closed-form expectation of the per-sample slope for a hard
  step rotation, used as the analytic model behind the Monte Carlo checks.
* gg_rhs_adaptive, lp_length_adaptive, psi0_nested: adaptive scipy quadrature
  in u, in r and nested in polar coordinates, beside the package's
  piecewise-exact arc quadrature and closed-form angular integral.
* braid_per_duration: one loop traced and read off on its own (inbound path,
  flow refined on [0, T], outbound path, every piece bisected to small
  pair-angle steps, crossings scanned pair by pair), beside the package's
  tracer, which reads each short path as one exact chord and shares the
  inbound path, the flow refinement and the crossing events between
  durations and flows.
* chord_events: the crossings of one short path, read pair by pair off its
  bisected chords, beside the package's single-edge chord.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def torus_link_signature(p: int, q: int) -> int:
    """Signature of the (p, q) torus link, p, q >= 1.

    Counts f = i/p + j/q mod 2 over 1 <= i <= p-1, 1 <= j <= q-1:
    values in (0, 1/2) or (3/2, 2) contribute +1, values in (1/2, 3/2)
    contribute -1, and the exact boundary points contribute 0.
    """
    sig = 0
    for i in range(1, p):
        for j in range(1, q):
            f = Fraction(i, p) + Fraction(j, q)
            f = f % 2
            if Fraction(0) < f < Fraction(1, 2) or Fraction(3, 2) < f < 2:
                sig += 1
            elif Fraction(1, 2) < f < Fraction(3, 2):
                sig -= 1
    return sig


def float_signature(seifert: np.ndarray, tol: float = 1e-9) -> int:
    """Signature of V + V^T by floating-point eigenvalues (test oracle only)."""
    if seifert.size == 0:
        return 0
    sym = seifert.astype(float) + seifert.astype(float).T
    eig = np.linalg.eigvalsh(sym)
    scale = max(1.0, float(np.max(np.abs(eig))))
    return int(np.sum(eig > tol * scale) - np.sum(eig < -tol * scale))


class _Int64Overflow(Exception):
    pass


def _dense_reduce(M: np.ndarray, guard: bool) -> int:
    """Fraction-free symmetric congruence reduction of a dense matrix.

    Pivots are consecutive leading minors of the running congruent matrix;
    each contributes sign(d_k * d_{k-1}).  Zero pivots are repaired by a
    symmetric swap with a nonzero diagonal or, failing that, by adding a row
    and column pair.  Fully zero rows are radical directions.  With guard,
    raises _Int64Overflow before an int64 step could overflow.
    """
    m = M.shape[0]
    sig = 0
    prev = 1
    for k in range(m):
        if M[k, k] == 0:
            fixed = False
            for j in range(k + 1, m):
                if M[j, j] != 0:
                    M[[k, j], :] = M[[j, k], :]
                    M[:, [k, j]] = M[:, [j, k]]
                    fixed = True
                    break
            if not fixed:
                for j in range(k + 1, m):
                    if M[k, j] != 0:
                        if guard and max(int(np.max(np.abs(M[k, :]))),
                                         int(np.max(np.abs(M[j, :])))) > 2 ** 61:
                            raise _Int64Overflow
                        M[k, :] += M[j, :]
                        M[:, k] += M[:, j]
                        fixed = True
                        break
            if not fixed:
                continue
        p = int(M[k, k])
        sig += 1 if (p > 0) == (prev > 0) else -1
        if k + 1 < m:
            sub = M[k + 1:, k + 1:]
            col = M[k + 1:, k]
            if guard:
                peak = max(int(np.max(np.abs(sub))), 1) * abs(p) \
                    + int(np.max(np.abs(col))) ** 2
                if peak > 2 ** 62:
                    raise _Int64Overflow
            M[k + 1:, k + 1:] = (sub * p - np.outer(col, col)) // prev
        prev = p
    return sig


def dense_signature(sym: np.ndarray) -> int:
    """Exact signature by dense O(g^3) elimination (test oracle only).

    braidflow 0.1.0's reducer: int64 numpy rows while entries stay below the
    guard, and Python-integer object arrays otherwise.
    """
    if sym.size == 0:
        return 0
    if np.max(np.abs(sym), initial=0) < 2 ** 30:
        try:
            return _dense_reduce(sym.astype(np.int64, copy=True), guard=True)
        except _Int64Overflow:
            pass
    boxed = np.array([[int(v) for v in row] for row in sym], dtype=object)
    return _dense_reduce(boxed, guard=False)


def seifert_matrix_by_column(word) -> np.ndarray:
    """Seifert matrix with basis loops listed by column, then by band.

    braidflow 0.1.0's builder, a double loop over all pairs of loops (test
    oracle only).  Loops run between consecutive bands of one column; the
    package lists the same loops by the position of their first band.
    """
    from braidflow.braid_algebra import free_reduce

    word = free_reduce(word)
    cols: dict[int, list[tuple[int, int]]] = {}
    for pos, l in enumerate(word.letters):
        cols.setdefault(abs(l), []).append((pos, 1 if l > 0 else -1))
    loops: list[tuple[int, int, int, int, int]] = []
    for col in sorted(cols):
        bands = cols[col]
        for (pa, sa), (pb, sb) in zip(bands, bands[1:]):
            loops.append((col, pa, pb, sa, sb))
    g = len(loops)
    V = np.zeros((g, g), dtype=np.int64)
    for x in range(g):
        cx, ax1, ax2, sx1, sx2 = loops[x]
        V[x, x] = -(sx1 + sx2) // 2
        for y in range(x + 1, g):
            cy, by1, by2, sy1, sy2 = loops[y]
            if cy == cx:
                # only y directly after x shares a band (at ax2, sign sx2)
                if by1 == ax2:
                    if sx2 == 1:
                        V[x, y] = 1
                    else:
                        V[y, x] = -1
            elif abs(cy - cx) == 1:
                lo, hi = (x, y) if cx < cy else (y, x)
                a1, a2 = loops[lo][1], loops[lo][2]
                b1, b2 = loops[hi][1], loops[hi][2]
                if a1 < b1 < a2 < b2:
                    V[lo, hi] = 1
                elif b1 < a1 < b2 < a2:
                    V[lo, hi] = -1
    return V


def full_twist_signature_rate(p: int) -> int:
    """Slope in k of torus_link_signature(p, p*k); equals -2*floor(p^2/4)."""
    return -2 * (p * p // 4)


def s_ratio(n: int) -> Fraction:
    """Full-twist signature rate divided by the full twist's writhe n(n-1)."""
    return Fraction(full_twist_signature_rate(n), n * (n - 1))


def binomial_slope(a: float, n_points: int) -> float:
    """Expected per-sample slope for a hard step profile, unit inner speed.

    With each of n_points samples independently inside the rotating disc with
    probability a, the signature of the traced braid closure grows like
    full_twist_signature_rate(k) per time unit when k points are inside, and
    the writhe grows like k(k-1); subtracting s_ratio(n_points) times the
    writhe and taking binomial expectations gives this closed form.
    """
    rho = s_ratio(n_points)
    total = 0.0
    for k in range(n_points + 1):
        weight = math.comb(n_points, k) * a ** k * (1 - a) ** (n_points - k)
        rate = full_twist_signature_rate(k) if k >= 2 else 0
        total += weight * (rate - float(rho) * k * (k - 1))
    return total


def gg_step_value(u0: float, lam: float, n: int) -> float:
    """(n/2) * integral_{u0}^{1} lam * (u^(2n-1) - u) du in closed form."""
    upper = 1.0 / (2 * n) - 0.5
    lower = u0 ** (2 * n) / (2 * n) - u0 ** 2 / 2.0
    return (n / 2.0) * lam * (upper - lower)


def psi0_radial(a: float, n_grid: int = 400001, rho_max: float = 400.0) -> float:
    """One-dimensional reduction of the psi0 integral (independent route).

    For real a >= 0 the angular integral has the closed form
    2*pi*(1+a^2+rho^2) / ((1+(a-rho)^2)*(1+(a+rho)^2))^(3/2); integrate over
    rho with Simpson's rule plus the analytic rho^-4 tail estimate.
    """
    if rho_max < 20.0 * (1.0 + a):
        rho_max = 20.0 * (1.0 + a)
    rho = np.linspace(0.0, rho_max, n_grid)
    A = 1.0 + a * a + rho * rho
    denom = ((1.0 + (a - rho) ** 2) * (1.0 + (a + rho) ** 2)) ** 1.5
    vals = 2.0 * math.pi * A / denom
    from scipy.integrate import simpson
    body = float(simpson(vals, x=rho))
    tail = 2.0 * math.pi / (3.0 * rho_max ** 3)  # integrand ~ 2*pi/rho^4 out there
    return body + tail


def gg_rhs_adaptive(profile, n: int) -> float:
    """gg_rhs by adaptive quadrature in the height coordinate u.

    (n/2) times the integral over [-1, 1] of (u^(2n-1) - u) * omega(r(u)),
    r(u) = sqrt((1 - u) / (1 + u)), by scipy's quad with one breakpoint per
    knot: the route braidflow 0.1.0 used, about 12 s on 2001 knots.
    """
    from scipy import integrate

    power = 2 * n - 1

    def integrand(u: float) -> float:
        uu = min(max(u, -1.0 + 1e-15), 1.0)
        return (u ** power - u) * profile.omega(math.sqrt((1.0 - uu) / (1.0 + uu)))

    points = sorted({(1.0 - r * r) / (1.0 + r * r) for r, _ in profile.knots
                     if r > 0.0})
    limit = max(200, 2 * len(points) + 10)
    value, _err = integrate.quad(integrand, -1.0, 1.0, points=points or None,
                                 epsabs=1e-13, epsrel=1e-10, limit=limit)
    return 0.5 * n * value


def _speed(spec, r):
    r = np.asarray(r, dtype=float)
    return 2.0 * math.pi * np.abs(spec.angular_rate(r)) * r / (1.0 + r * r)


def lp_length_adaptive(spec, p: float, rel_tol: float = 1e-8) -> float:
    """L^p path length by adaptive quadrature in the chart radius r.

    Finite p: scipy's quad of speed^p * 4 pi r (1 + r^2)^-2 with limit=400,
    so fewer than 400 knots and sign changes.  p = inf: the largest of the speeds at the
    knots and of bounded Brent maximisations on every knot interval.  Both
    break at the knots and where the rate changes sign: without the sign
    breaks quad missed |rate|'s kink by 1e-9 relative at p = 1.
    """
    from scipy import integrate, optimize

    pts = [r for r in spec.breakpoint_radii() if r > 0]
    rates = spec.angular_rate(np.array(pts))
    fracs = [(r0, r1, w0 / (w0 - w1)) for r0, r1, w0, w1
             in zip(pts, pts[1:], rates, rates[1:]) if w0 * w1 < 0]
    # a sign change within 1e-6 of a knot is left to the knot's break
    pts = sorted({*pts, *(r0 + (r1 - r0) * f for r0, r1, f in fracs
                          if 1e-6 < f < 1.0 - 1e-6)})
    if p == math.inf:
        edges = [0.0, *pts, 4.0 * max(pts + [1.0]) + 2.0]
        best = float(np.max(_speed(spec, edges)))
        for lo, hi in zip(edges, edges[1:]):
            res = optimize.minimize_scalar(
                lambda r: -float(_speed(spec, r)), bounds=(lo, hi),
                method="bounded", options={"xatol": 1e-12})
            best = max(best, -res.fun)
        return spec.duration * best

    def integrand(r):
        return _speed(spec, r) ** p * 4.0 * math.pi * r * (1.0 + r * r) ** -2

    r_max = max(pts) if pts else 1.0
    val, err = integrate.quad(integrand, 0.0, r_max, points=pts, limit=400,
                              epsrel=rel_tol, epsabs=0.0)
    tail, tail_err = integrate.quad(integrand, r_max, np.inf, limit=200,
                                    epsrel=rel_tol, epsabs=1e-14)
    total = val + tail
    if total > 0 and (err + tail_err) > 10 * rel_tol * total + 1e-13:
        raise RuntimeError(f"speed integral error {err + tail_err:.3e}")
    return spec.duration * total ** (1.0 / p)


def psi0_nested(a: complex, tol: float = 1e-6) -> float:
    """psi0 by nested adaptive quadrature: angular quad inside radial quad.

    Polar coordinates centered at a absorb the kernel singularity; the
    angular integrand 1 / (1 + |z|^2)^2 is integrated numerically for every
    radius, as braidflow 0.1.0 did.
    """
    from scipy import integrate

    aa = abs(complex(a))

    def radial(rho: float) -> float:
        base = 1.0 + aa * aa + rho * rho
        cross = 2.0 * aa * rho
        # the integrand peaks at phi = pi, sharply so when rho is near |a|
        return integrate.quad(lambda phi: 1.0 / (base + cross * math.cos(phi)) ** 2,
                              0.0, 2.0 * math.pi, points=[math.pi], epsabs=1e-14,
                              epsrel=tol / 10.0, limit=200)[0]

    cuts = [0.0] + sorted({c for c in (0.5 * aa, 2.0 * (aa + 1.0)) if c > 0.0})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:] + [np.inf]):
        total += integrate.quad(radial, lo, hi, epsabs=1e-14,
                                epsrel=tol / 4.0, limit=200)[0]
    return total


def _wrapped_steps(z: np.ndarray) -> np.ndarray:
    d = np.diff(np.angle(z), axis=0)
    return (d + math.pi) % (2.0 * math.pi) - math.pi


def _refine(evaluate, t1: float, n_initial: int, max_step: float, n: int):
    """Bisect [0, t1] until no pair angle moves more than max_step per step."""
    from braidflow.braid_trace import REFINE_CAP, RefinementError

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    times = np.linspace(0.0, t1, n_initial)
    while True:
        pts = evaluate(times)
        if not pairs:
            return pts
        rel = np.stack([pts[:, i] - pts[:, j] for i, j in pairs], axis=1)
        bad = np.nonzero(np.max(np.abs(_wrapped_steps(rel)), axis=1)
                         > max_step)[0]
        if bad.size == 0:
            return pts
        if times.size + bad.size > REFINE_CAP:
            raise RefinementError("refinement cap exceeded")
        times = np.sort(np.concatenate(
            [times, 0.5 * (times[bad] + times[bad + 1])]))


def _check_separation(pts: np.ndarray, delta: float):
    from braidflow.braid_trace import PathCollisionError

    n = pts.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            if float(np.min(np.abs(pts[:, i] - pts[:, j]))) <= delta:
                raise PathCollisionError(f"points {i},{j} collide")


def _short_path(za, zb, delta: float, max_step: float):
    """Samples of the straight chords from tuple za to tuple zb (complex
    arrays), bisected until no pair angle moves more than max_step."""
    from braidflow.braid_trace import PathCollisionError

    n = len(za)
    for i in range(n):
        for j in range(i + 1, n):
            a0, a1 = za[i] - za[j], zb[i] - zb[j]
            d = a1 - a0
            t = 0.0 if d == 0 else min(1.0, max(0.0, -(
                (a0 * d.conjugate()).real) / abs(d) ** 2))
            if abs(a0 + t * d) <= delta:
                raise PathCollisionError(f"chords {i},{j} collide")
    return _refine(lambda ts: (1.0 - ts[:, None]) * za + ts[:, None] * zb,
                   1.0, 17, max_step, n)


def chord_events(za, zb, chi: float, delta: float = 1e-9,
                 max_step: float = math.pi / 8):
    """Sorted (s, i, j, sign) of every crossing of the line at angle chi by a
    pair vector z_i - z_j along the chords from za to zb, s in [0, 1]."""
    grids = []

    def evaluate(ts):
        grids.append(ts)
        return (1.0 - ts[:, None]) * za + ts[:, None] * zb

    _short_path(za, zb, delta, max_step)  # the same collision check
    pts = _refine(evaluate, 1.0, 17, max_step, len(za))
    ts = grids[-1]
    events = []
    for i in range(len(za)):
        for j in range(i + 1, len(za)):
            w = pts[:, i] - pts[:, j]
            psi = np.concatenate(([math.atan2(w[0].imag, w[0].real)],
                                  _wrapped_steps(w))).cumsum()
            events += [(ts[e] + f * (ts[e + 1] - ts[e]), i, j, sign)
                       for e, f, sign in _pair_events(psi, w, chi)]
    return sorted(events)


def _pair_events(psi: np.ndarray, w: np.ndarray, chi: float):
    """(edge, fraction, sign) of every crossing of w's direction over the
    line at angle chi; DegenerateDirectionError for a non-generic chi."""
    from braidflow.braid_trace import DegenerateDirectionError

    rel = (psi - chi) / math.pi
    if np.any(rel == np.round(rel)):
        raise DegenerateDirectionError("sample on the ray")
    lo, hi = np.floor(rel[:-1]), np.floor(rel[1:])
    events = []
    for e in np.nonzero(hi != lo)[0]:
        if abs(hi[e] - lo[e]) != 1.0:
            raise DegenerateDirectionError("two rays in one edge")
        u = np.exp(1j * (chi + max(lo[e], hi[e]) * math.pi))
        ya, yb = (w[e] / u).imag, (w[e + 1] / u).imag
        if ya == yb:
            raise DegenerateDirectionError("tangent edge")
        events.append((int(e), float(ya / (ya - yb)),
                       1 if psi[e + 1] > psi[e] else -1))
    return events


def _word_from_samples(z: np.ndarray, om: complex):
    from braidflow.braid_algebra import BraidWord, permutation
    from braidflow.braid_trace import DegenerateDirectionError, ExtractionError

    n = z.shape[1]
    chi = math.atan2(om.imag, om.real)
    positions = (z[0] / om).imag
    if len(set(positions.tolist())) != n:
        raise DegenerateDirectionError("projection ties")
    order = list(np.argsort(positions))
    start = order.copy()
    events = []
    for i in range(n):
        for j in range(i + 1, n):
            w = z[:, i] - z[:, j]
            psi = np.concatenate(([math.atan2(w[0].imag, w[0].real)],
                                  _wrapped_steps(w))).cumsum()
            events += [(e, s, i, j, sign)
                       for e, s, sign in _pair_events(psi, w, chi)]
    events.sort(key=lambda ev: ev[:2])
    if any(a[:2] == b[:2] for a, b in zip(events, events[1:])):
        raise DegenerateDirectionError("simultaneous crossings")
    letters = []
    for _e, _s, i, j, sign in events:
        pi_, pj = order.index(i), order.index(j)
        if abs(pi_ - pj) != 1:
            raise DegenerateDirectionError("non-adjacent swap")
        letters.append(sign * (min(pi_, pj) + 1))
        order[pi_], order[pj] = order[pj], order[pi_]
    word = BraidWord(tuple(letters), n)
    if order != start:
        raise DegenerateDirectionError("order did not close up")
    if permutation(word) != tuple(range(n)):
        raise ExtractionError("not a pure braid")
    return word


def braid_per_duration(spec, x, base, omega: complex | None = None,
                       delta: float = 1e-9, max_step: float = math.pi / 8):
    """Braid word of one traced loop, built and read off on its own.

    The route braidflow 0.1.0 took for every duration: short path in, the
    flow refined on [0, T] from max(17, 4 * max|rate| * T + 1) even samples,
    short path back, then each pair's crossings of the projection ray
    scanned separately, retrying the direction on degeneracy.  (0.1.0 sized
    the flow grid from the rate spread, which aliases rigid rotations.)
    """
    from braidflow.braid_algebra import BraidWord
    from braidflow.braid_trace import (DEFAULT_DIRECTION,
                                       DegenerateDirectionError,
                                       ExtractionError, tuple_from_coords)

    za, zx = base.coords(), x.coords()
    inbound = _short_path(za, zx, delta, max_step)
    rates = np.atleast_1d(spec.angular_rate(np.abs(zx)))
    fastest = float(np.max(np.abs(rates)))
    n_init = max(17, int(math.ceil(4.0 * fastest * spec.duration)) + 1)
    flow = _refine(
        lambda ts: zx * np.exp(2j * math.pi * rates * ts[:, None]),
        spec.duration, n_init, max_step, x.n)
    _check_separation(flow, delta)
    y = tuple_from_coords(flow[-1]).coords()
    outbound = _short_path(y, za, delta, max_step)
    if x.n == 1:
        return BraidWord((), 1)
    z = np.concatenate([inbound, flow[1:], outbound[1:]])
    om0 = DEFAULT_DIRECTION if omega is None else omega
    for attempt in range(16):
        om = om0 * complex(np.exp(1j * 0.37311 * attempt))
        try:
            return _word_from_samples(z, om / abs(om))
        except DegenerateDirectionError:
            continue
    raise ExtractionError("no generic direction")
