"""Vectorised ray intersections for heterogeneous speed-function sets.

The partitioning algorithms spend essentially all their time intersecting
one ray with ``p`` speed graphs, ``O(log n)`` times.  The generic path
loops over ``p`` Python objects; this module packs the whole fleet into
padded 2-D arrays and resolves the whole ray in a handful of NumPy
operations: each row's segment is found by counting the knots whose ray
slope lies at or above the query (rows are non-increasing), one dense
comparison for the whole fleet.

:func:`pack_speed_functions` builds the shared pack (or returns ``None``
when the fast path does not apply); callers that answer many queries over
the same fleet — most notably :mod:`repro.planner` — construct it once and
hand it to every algorithm call through their ``pack=`` parameter.
:func:`make_allocator` remains the one-shot entry point: it returns the
vectorised fast path when it applies and the plain loop otherwise, so the
algorithms stay representation-agnostic.  The figure-21 cost benchmark
exercises this path at ``p = 1080``.

Besides ray intersections the pack also evaluates per-processor speeds and
execution times for whole allocation vectors (:meth:`PiecewiseLinearSet.speeds`
/ :meth:`PiecewiseLinearSet.times`), bit-compatible with the per-object
``np.interp`` path, which lets the fine-tuning step batch its finish-time
evaluations.  :attr:`PiecewiseLinearSet.fingerprint` is a stable content
hash of the knot arrays used as a cache key by the planner.

Compilation protocol
--------------------
Every :class:`~repro.core.speed_function.SpeedFunction` may lower itself to
a :class:`~repro.core.speed_function.KnotRow` via ``as_knots()``: a
piecewise-linear *compute* curve plus three orthogonal decorations the
pack evaluates on top of the shared knot arrays —

``scale``
    speeds multiplied by a constant.  Queries divide their ray slope by
    the per-row scale instead of touching the knot arrays, so
    :meth:`PiecewiseLinearSet.rescaled` re-keys a pack in ``O(p)``
    (``adapt``'s EWMA drift corrections keep warm packs across updates).
``alpha`` / ``beta``
    the communication model ``t(x) = x/s(x) + alpha + beta*x``; the pack
    searches the *effective* slopes ``1/t(x_k)`` and solves the
    comm-adjusted crossing on the selected segment in closed form (one
    quadratic) instead of the per-object 200-step bisection.
``x_cap`` / ``s_cap``
    domain truncation: ray answers clamp to ``min(x, x_cap)`` *after* the
    base solve (exactly the per-object ``min(base.intersect_ray(c), cap)``
    semantics), and speeds freeze at ``s_cap``.

Conformance classes (verified by ``repro.verify`` differential cases and
the hypothesis bit-identity suite):

========================  =============================================
model                     compiled result vs per-object path
========================  =============================================
piecewise linear          bit-identical
constant                  bit-identical (``min(s0/c, max_size)``)
step (dense knots)        bit-identical (drop segments resolve to the
                          boundary exactly)
truncated(any exact)      bit-identical (post-solve ``min`` with the cap)
scaled(any exact)         bit-identical (slope divided by the scale, the
                          same operation the wrapper applies)
analytic, tabulated       bit-identical once tabulated (raw analytic
                          models do not compile — 200-step bisection has
                          no closed form)
comm-aware(any)           1e-9 class: closed-form segment solve versus
                          the object's 1e-12-relative bisection; nested
                          ``scaled`` factors fold into the knot speeds
nested scaled(scaled)     1e-9 class: one fused division versus two
========================  =============================================
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from .speed_function import KnotRow, SpeedFunction

__all__ = [
    "PiecewiseLinearSet",
    "make_allocator",
    "pack_speed_functions",
    "packing_disabled",
]

#: Largest ``slopes x p x knots`` comparison one dense segment count may
#: build; :meth:`PiecewiseLinearSet.allocations_many` chunks wider batches.
_COUNT_MAX_ELEMENTS = 32_000_000

#: When set, :func:`pack_speed_functions` refuses to pack — the honest
#: per-object baseline for benchmarks and differential conformance runs.
_PACKING_DISABLED = False


@contextmanager
def packing_disabled():
    """Force the per-object path while the context is active.

    Algorithms that auto-pack (``partition_bisection`` and friends) fall
    back to the plain Python loop inside this context, which is what the
    vectorisation benchmarks and ``verify.differential`` use as the
    oracle.  Not thread-safe; intended for benchmarks and tests.
    """
    global _PACKING_DISABLED
    saved = _PACKING_DISABLED
    _PACKING_DISABLED = True
    try:
        yield
    finally:
        _PACKING_DISABLED = saved


def _record_pack(outcome: str, blocked_by: str | None = None) -> None:
    """Count pack attempts on the obs registry (satellite: visible fallbacks)."""
    from .. import obs

    if not obs.is_enabled():
        return
    if outcome == "fast_path":
        obs.get_registry().counter(
            "core.pack.fast_path",
            help="fleets compiled into the vectorised pack",
        ).inc()
    else:
        obs.get_registry().counter(
            "core.pack.fallback",
            labels={"blocked_by": blocked_by or "unknown"},
            help="fleets that fell back to the per-object path",
        ).inc()


class PiecewiseLinearSet:
    """Padded-array pack of many compiled speed functions.

    Rows are processors; columns are knots, right-padded by repeating each
    row's last knot (degenerate zero-length segments that the search never
    selects, because the padded ray slopes are strictly below any query
    that reaches them).  Rows carry the :class:`KnotRow` decorations —
    per-row ``scale``, comm terms ``alpha``/``beta`` and truncation caps —
    evaluated lazily on top of the shared knot arrays, each gated on a
    fleet-level flag so a pure piecewise-linear fleet executes exactly the
    original array expressions.

    Construction is one pass over the *distinct* rows: a tiled fleet that
    repeats a few model objects lowers and packs each of them once, then
    gathers the arrays to its ``p`` processors.  The arrays are stored
    knot-major (one contiguous processor vector per knot), the layout the
    dense segment search reads; the row-major ``(p, knots)`` arrays are
    transposed views of that storage.
    """

    def __init__(
        self,
        functions: Sequence[SpeedFunction],
        rows: Sequence[KnotRow] | None = None,
    ):
        if rows is None:
            rows, blocked = _lower(functions)
            if blocked is not None:
                raise ValueError(
                    f"speed_functions[{blocked}] "
                    f"({type(functions[blocked]).__name__}) does not compile"
                )
        p = len(rows)
        # Everything below is computed once per *distinct* row object
        # (a tiled fleet repeats a handful of models) and then gathered
        # to the ``p`` processors through ``index``.
        uniq = _distinct(rows)
        slot = {id(r): j for j, r in enumerate(uniq)}
        index = np.fromiter(map(slot.__getitem__, map(id, rows)), np.intp, p)
        u = len(uniq)
        sizes, speeds, drops, scale, alpha, beta, x_cap, s_cap, exact = zip(
            *map(_ROW_FIELDS, uniq)
        )
        widths = np.fromiter(map(len, sizes), np.int64, u)
        m = int(widths.max())
        # Arrays are built in the search layout: knots along axis 0, rows
        # along axis 1, so the per-processor count and gathers of a query
        # run over contiguous processor vectors.  The row-major names the
        # pack exposes are transposed views of this storage.
        #
        # One padded gather from the concatenated knots: knot j of a row
        # reads its knot min(j, width-1), so pads repeat the last knot.
        knot = np.arange(m)[:, None]
        take = (np.cumsum(widths) - widths) + np.minimum(knot, widths - 1)
        xs = np.concatenate(sizes, dtype=float)[take]
        ss = np.concatenate(speeds, dtype=float)[take]
        # Decorations, one column per distinct row.
        deco = np.array(
            [
                scale,
                alpha,
                beta,
                [np.inf if c is None else c for c in x_cap],
                [0.0 if c is None else c for c in s_cap],
                exact,
            ],
            dtype=float,
        )
        comm = (deco[1] > 0) | (deco[2] > 0)
        # Effective ray slopes at each knot.  Pure rows: g = s/x.  Comm
        # rows: g' = 1/t(x_k) with t = x/s + alpha + beta*x, strictly
        # decreasing, bounded above by 1/alpha.
        with np.errstate(divide="ignore", invalid="ignore"):
            gs = ss / xs
            if comm.any():
                t_k = xs / ss + deco[1] + deco[2] * xs
                gs = np.where(comm, 1.0 / t_k, gs)
        # Make padded slots unreachable: strictly below every real slope.
        gs[knot >= widths] = -np.inf
        # Per-segment line parameters s = a + b*x (entry j: segment j->j+1).
        # Unbounded rows put their last knot at infinity: their pad
        # segments produce nan parameters (inf - inf), but the search can
        # only land there when the shallow override fires, so the values
        # are never read.  Flat segments force the intercept to the knot
        # speed rather than risk 0 * inf.
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = np.diff(xs, axis=0)
            b = np.where(dx > 0, np.diff(ss, axis=0) / np.where(dx > 0, dx, 1.0), 0.0)
            intercept = np.where(b != 0, ss[:-1] - b * xs[:-1], ss[:-1])
        # Step-model drop segments: zero the line so the segment solve
        # yields 0, which the [x0, x1] clip then lifts to the left
        # boundary — the exact ``sup`` answer for a ray crossing a
        # vertical speed drop.  (Comm rows: A=0, B=1, C=0 resolves the
        # quadratic to 0 with the same clip.)
        stepped = [j for j, d in enumerate(drops) if d is not None]
        if stepped:
            flags = [np.asarray(drops[j], dtype=bool) for j in stepped]
            lens = np.fromiter(map(len, flags), np.int64, len(flags))
            drop = np.concatenate(flags)
            row = np.repeat(stepped, lens)[drop]
            seg = (np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens))[drop]
            b[seg, row] = 0.0
            intercept[seg, row] = 0.0
        if u < p:
            xs, ss, gs, b, intercept, deco = (
                arr.take(index, axis=1) for arr in (xs, ss, gs, b, intercept, deco)
            )
            widths = widths[index]
        self._xs = xs.T
        self._ss = ss.T
        self._gs = gs.T
        self._seg_slope = b.T
        self._seg_intercept = intercept.T
        self._widths = widths
        # Row decorations.
        self._scale, self._alpha, self._beta, caps, s_caps, exact = deco
        self._comm_mask = (self._alpha > 0) | (self._beta > 0)
        self._has_scale = bool(np.any(self._scale != 1.0))
        self._has_comm = bool(np.any(self._comm_mask))
        self._exact = exact != 0.0
        # Effective domain bound per row (the truncation cap when present)
        # and the inner (compute) speed there.  The last padded knot is
        # every row's last knot.
        knot_last_x = xs[-1]
        self._has_trunc = bool(np.any(caps < knot_last_x))
        self._x_knot_last = knot_last_x
        self._x_last = np.minimum(caps, knot_last_x)
        self._s_last = np.where(caps < knot_last_x, s_caps, ss[-1])
        self._rows = np.arange(p)
        self._g_first = gs[0]
        self._g_last = gs[widths - 1, self._rows]
        self._s_first = ss[0]
        self._m = m
        self._fingerprint: str | None = None
        # Shared across rescaled() clones so the expensive knot digest is
        # computed once per knot set, not once per scale vector.
        self._static_digest_box: list[bytes | None] = [None]
        _record_pack_build()

    @property
    def p(self) -> int:
        return int(self._rows.size)

    @property
    def max_sizes(self) -> np.ndarray:
        """Per-processor memory bounds (caps applied); read-only."""
        v = self._x_last.view()
        v.flags.writeable = False
        return v

    @property
    def exact(self) -> bool:
        """True when every row evaluates bit-identically to its object."""
        return bool(np.all(self._exact))

    @property
    def scales(self) -> np.ndarray:
        """Per-row speed scale factors; read-only."""
        v = self._scale.view()
        v.flags.writeable = False
        return v

    def _static_digest(self) -> bytes:
        """Digest of everything except the scale vector (shared by clones)."""
        if self._static_digest_box[0] is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(np.asarray(self._xs.shape, dtype=np.int64).tobytes())
            h.update(self._widths.tobytes())
            h.update(np.ascontiguousarray(self._xs).tobytes())
            h.update(np.ascontiguousarray(self._ss).tobytes())
            h.update(self._alpha.tobytes())
            h.update(self._beta.tobytes())
            h.update(self._x_last.tobytes())
            self._static_digest_box[0] = h.digest()
        return self._static_digest_box[0]

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the packed knot arrays and decorations.

        Two packs built from speed functions with identical knots (and
        identical scale/comm/cap decorations) produce the same
        fingerprint, so it can key plan caches across fleet
        reconstructions.  Computed lazily and memoised; a
        :meth:`rescaled` clone re-hashes only its ``O(p)`` scale vector
        on top of the memoised knot digest.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(self._static_digest())
            h.update(self._scale.tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def rescaled(self, factors: Sequence[float]) -> "PiecewiseLinearSet":
        """A pack with per-row speeds multiplied by ``factors`` — in ``O(p)``.

        All knot arrays, segment parameters and search structures are
        shared with ``self``; only the scale vector (and the fingerprint)
        are new.  This is the drift-correction hot path: ``adapt``'s EWMA
        updates rescale a fleet every observation, and rebuilding the
        ``O(p*m)`` pack each time would dominate the replan.

        Comm rows cannot be rescaled in place (the comm terms do not
        commute with a post-hoc speed scale): attempting it raises
        ``ValueError``.
        """
        f = np.asarray(factors, dtype=float)
        if f.shape != (self.p,):
            raise ValueError(
                f"factors must have shape ({self.p},), got {f.shape}"
            )
        if np.any(f <= 0):
            raise ValueError("scale factors must be positive")
        if self._has_comm and np.any(f[self._comm_mask] != 1.0):
            raise ValueError(
                "comm-aware rows cannot be rescaled in place; rebuild the pack"
            )
        clone = object.__new__(PiecewiseLinearSet)
        clone.__dict__.update(self.__dict__)
        clone._scale = self._scale * f
        clone._has_scale = bool(np.any(clone._scale != 1.0))
        # One scale layer over an unscaled row performs exactly the
        # wrapper's slope division; stacking factors fuses two divisions
        # into one and drops to the 1e-9 class.
        clone._exact = self._exact & ((f == 1.0) | (self._scale == 1.0))
        clone._fingerprint = None
        _record_pack_rescale()
        return clone

    # ------------------------------------------------------------------
    # Ray intersections
    # ------------------------------------------------------------------
    def allocations(self, slope: float) -> np.ndarray:
        """Size coordinates of the ray's intersection with every graph."""
        return self._intersect(slope)

    def allocations_many(self, slopes: np.ndarray) -> np.ndarray:
        """Ray intersections for a whole batch of slopes at once.

        Returns a ``(len(slopes), p)`` array whose row ``r`` is bit-identical
        to ``allocations(slopes[r])`` — the arithmetic is the same expression
        broadcast over the batch axis, so batched solvers (the planner's
        lockstep sweep) produce exactly the per-query results while paying
        the NumPy dispatch overhead once per step instead of once per query.
        Batches whose dense segment count would exceed
        ``_COUNT_MAX_ELEMENTS`` are solved in chunks under that cap.
        """
        c = np.asarray(slopes, dtype=float)[:, None]  # (q, 1)
        step = max(1, _COUNT_MAX_ELEMENTS // (self.p * self._m))
        if c.shape[0] <= step:
            return self._intersect(c)
        return np.concatenate(
            [self._intersect(c[i : i + step]) for i in range(0, c.shape[0], step)]
        )

    def _intersect(self, c) -> np.ndarray:
        """Ray intersections for a scalar slope or a ``(q, 1)`` batch.

        Every expression broadcasts over the optional batch axis, so a
        batch row is bit-identical to the scalar answer for its slope.
        """
        p, rows = self.p, self._rows
        # Scaled rows divide the query slope instead of their knots — the
        # exact operation _ScaledSpeedFunction.intersect_ray applies.
        cq = c / self._scale if self._has_scale else c
        # Segment search: each row of ``gs`` is non-increasing (strictly
        # decreasing knots, -inf pads), so k = max{j : g[j] >= slope} is
        # the count of entries at/above the slope, minus one — one dense
        # comparison over the (knots, p) storage instead of a search loop.
        # (An int32 count is exact for any knot count; the flat index below
        # is formed in intp, which holds any storage offset.)
        count = (self._gs.T >= _with_knot_axis(cq)).sum(axis=-2, dtype=np.int32)
        k = np.minimum(np.maximum(count - 1, 0), self._m - 2)
        # Flat index of segment k in the (knots, p) storage.
        kp = np.multiply(k, p, dtype=np.intp) + rows
        a = self._seg_intercept.T.take(kp)
        b = self._seg_slope.T.take(kp)
        denom = cq - b
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(denom > 0, a / np.where(denom > 0, denom, 1.0), np.inf)
        x0 = self._xs.T.take(kp)
        x1 = self._xs.T.take(kp + p)
        x = np.clip(x, x0, x1)
        # Case 1: steeper than the first knot's ray -> constant extension.
        steep = cq >= self._g_first
        x = np.where(steep, self._s_first / cq, x)
        # Case 2: shallower than the last knot's ray -> clamp at the bound.
        x = np.where(cq <= self._g_last, self._x_knot_last, x)
        if self._has_comm:
            x = self._comm_allocations(c, a, b, x0, x1, steep, cq, x)
        if self._has_trunc:
            x = np.minimum(x, self._x_last)
        if self._has_comm:
            priced = (
                self._comm_mask
                & (self._alpha > 0)
                & (1.0 / c <= self._alpha)
            )
            x = np.where(priced, 0.0, x)
        return x

    def _comm_allocations(self, slope, a, b, x0, x1, steep, cq, x):
        """Closed-form comm crossings overlaid on the comm rows.

        Solves ``x/(a+bx) + alpha + beta*x = T`` (``T = 1/slope``) on the
        searched segment: ``A x^2 + B x + C = 0`` with ``A = beta*b``,
        ``B = 1 + alpha*b + beta*a - T*b``, ``C = a*(alpha - T)``; the
        upward crossing is ``(-B + sqrt(B^2-4AC)) / (2A)`` for either
        sign of ``A``, evaluated through the conjugate form
        ``2C / (-B - sqrt(B^2-4AC))`` when ``B > 0`` — algebraically the
        same root, but immune to the catastrophic ``-B + disc``
        cancellation that otherwise loses the crossing entirely at very
        shallow slopes (huge ``T``) over a declining segment.
        """
        T = 1.0 / slope
        aa, bb = self._alpha, self._beta
        A = bb * b
        B = 1.0 + aa * b + bb * a - T * b
        C = a * (aa - T)
        disc = np.sqrt(np.maximum(B * B - 4.0 * A * C, 0.0))
        nzA = A != 0
        stable = nzA & (B > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            xq = np.where(
                nzA,
                (-B + disc) / np.where(nzA, 2.0 * A, 1.0),
                np.where(B > 0, -C / np.where(B != 0, B, 1.0), x1),
            )
            xq = np.where(
                stable,
                2.0 * C / np.where(stable, -B - disc, 1.0),
                xq,
            )
        xq = np.clip(xq, x0, x1)
        # Constant-extension region: t(x) = x/s0 + alpha + beta*x = T.
        xq = np.where(
            steep, (T - aa) / (1.0 / self._s_first + bb), xq
        )
        xq = np.where(cq <= self._g_last, self._x_knot_last, xq)
        return np.where(self._comm_mask, xq, x)

    def total(self, slope: float) -> float:
        return float(self.allocations(slope).sum())

    # ------------------------------------------------------------------
    # Speeds and times
    # ------------------------------------------------------------------
    def _inner_speeds(self, x: np.ndarray) -> np.ndarray:
        """Compute-curve speeds by row (no scale or comm applied).

        Bit-compatible with the scalar path
        ``np.interp(x[i], knot_sizes, knot_speeds)`` used by
        :meth:`PiecewiseLinearSpeedFunction.speed`: the same segment is
        selected and the same ``s0 + (x-x0) * (s1-s0)/(x1-x0)`` arithmetic
        is applied, with the same clamping to the first/last (or cap)
        speeds outside the knot range.
        """
        x = np.asarray(x, dtype=float)
        xs, ss, p = self._xs.T, self._ss.T, self.p  # (knots, p) storage
        # Segment search: j = max{col : xs[col] <= x} per row is the count
        # of knots at/below x, minus one (knot sizes increase; pads repeat
        # the last knot, so they count only for x at/above the bound,
        # which is masked below).
        count = (xs <= _with_knot_axis(x)).sum(axis=-2, dtype=np.int32)
        j = np.minimum(np.maximum(count - 1, 0), self._m - 2)
        jp = np.multiply(j, p, dtype=np.intp) + self._rows
        x0, x1 = xs.take(jp), xs.take(jp + p)
        s0, s1 = ss.take(jp), ss.take(jp + p)
        dx = x1 - x0
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(dx > 0, (s1 - s0) / np.where(dx > 0, dx, 1.0), 0.0)
        out = slope * (x - x0) + s0
        out = np.where(x <= xs[0], self._s_first, out)
        out = np.where(x >= self._x_last, self._s_last, out)
        return out

    def speeds(self, x: np.ndarray) -> np.ndarray:
        """Per-processor speeds at per-processor sizes ``x`` (one pass).

        ``x[i]`` is evaluated on row ``i``, with the row's decorations
        applied: scale multiplies the interpolated speed, comm rows report
        the effective speed ``x / t(x)``, capped rows freeze at the cap
        speed.  Bit-compatible with the per-object path for exact rows.
        """
        x = np.asarray(x, dtype=float)
        if not self._has_comm:
            out = self._inner_speeds(x)
            if self._has_scale:
                out = self._scale * out
            return out
        xc = np.minimum(x, self._x_last)
        inner = self._inner_speeds(xc)
        with np.errstate(divide="ignore", invalid="ignore"):
            # Mirror CommAwareSpeedFunction.speed term by term:
            # t = base.time(xc) + where(xc>0, alpha + beta*xc, 0).
            tb = np.where(xc > 0, xc / inner, 0.0)
            t = tb + np.where(xc > 0, self._alpha + self._beta * xc, 0.0)
            s_comm = np.where(x > 0, x / t, 0.0)
        s_comm = np.where((self._alpha == 0.0) & (x <= 0), inner, s_comm)
        out = np.where(self._comm_mask, s_comm, inner)
        if self._has_scale:
            out = self._scale * out
        return out

    def times(self, x: np.ndarray) -> np.ndarray:
        """Per-processor execution times at allocations ``x`` (one pass).

        Matches :meth:`SpeedFunction.time` semantics element-wise:
        ``times(0) == 0`` and ``times(x) == inf`` beyond the memory bound.
        Comm rows return the total (compute plus communication) time, the
        quantity their ``time`` override reports.
        """
        x = np.asarray(x, dtype=float)
        xc = np.minimum(x, self._x_last)
        s = self._inner_speeds(xc)
        if self._has_scale:
            s = self._scale * s
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(x > 0, x / s, 0.0)
            if self._has_comm:
                tb = np.where(xc > 0, xc / s, 0.0)
                tcomm = tb + np.where(
                    xc > 0, self._alpha + self._beta * xc, 0.0
                )
                t = np.where(self._comm_mask, tcomm, t)
        return np.where(x > self._x_last, np.inf, t)

    def time_one(self, i: int, x: float) -> float:
        """Scalar :meth:`times` for row ``i`` — the heap-refinement probe.

        Bit-identical to ``times(v)[i]`` with ``v[i] == x``; used by the
        fine-tuning heaps to evaluate one candidate finish time without
        paying a whole-fleet array pass.
        """
        x = float(x)
        x_last = float(self._x_last[i])
        if x > x_last:
            return float("inf")
        if x <= 0:
            return 0.0
        xc = min(x, x_last)
        w = int(self._widths[i])
        s = float(np.interp(xc, self._xs[i, :w], self._ss[i, :w]))
        if xc <= float(self._xs[i, 0]):
            s = float(self._s_first[i])
        if xc >= x_last:
            s = float(self._s_last[i])
        if self._has_scale:
            s = float(self._scale[i]) * s
        if self._has_comm and bool(self._comm_mask[i]):
            tb = xc / s if xc > 0 else 0.0
            extra = (
                float(self._alpha[i]) + float(self._beta[i]) * xc
                if xc > 0
                else 0.0
            )
            return tb + extra
        return x / s


def _with_knot_axis(v):
    """``v`` shaped to broadcast against a ``(knots, p)`` storage array.

    A scalar stays a scalar; a per-row ``(..., p)`` or a batch ``(q, 1)``
    gains a knot axis before its last one.
    """
    v = np.asarray(v)
    return v[..., None, :] if v.ndim else v


def _record_pack_build() -> None:
    from .. import obs

    if obs.is_enabled():
        obs.get_registry().counter(
            "core.pack.build", help="full O(p*m) pack constructions"
        ).inc()


def _record_pack_rescale() -> None:
    from .. import obs

    if obs.is_enabled():
        obs.get_registry().counter(
            "core.pack.rescale", help="O(p) scale-vector pack clones"
        ).inc()


#: The :class:`KnotRow` fields :class:`PiecewiseLinearSet` reads, in the
#: order its constructor unpacks them.
_ROW_FIELDS = attrgetter(
    "sizes", "speeds", "drops", "scale", "alpha", "beta", "x_cap", "s_cap", "exact"
)


def _distinct(items: Sequence) -> list:
    """The distinct objects of ``items`` by identity, in first-seen order."""
    return list(dict(zip(map(id, items), items)).values())


def _lower(
    functions: Sequence[SpeedFunction],
) -> tuple[list[KnotRow], int | None]:
    """``as_knots()`` of every member, lowering each distinct object once.

    Repeats of one object (a tiled fleet) share its row, keyed by
    identity for this call only.  Returns the rows and ``None``, or, when
    a member does not compile, the index of the first such member in
    place of ``None``.
    """
    lowered = {id(sf): sf.as_knots() for sf in _distinct(functions)}
    rows = list(map(lowered.__getitem__, map(id, functions)))
    if any(row is None for row in lowered.values()):
        return rows, rows.index(None)
    return rows, None


def pack_speed_functions(
    speed_functions: Sequence[SpeedFunction],
) -> PiecewiseLinearSet | None:
    """Pack a fleet into a shared :class:`PiecewiseLinearSet`, if possible.

    Every member is lowered through the compilation protocol
    (:meth:`SpeedFunction.as_knots`); mixed fleets of piecewise-linear,
    constant, step, truncated, comm-aware and scaled models all compile.
    Returns ``None`` when the fast path does not apply: fewer than two
    processors, any member whose ``as_knots`` returns ``None`` (raw
    analytic models, stacked comm decorations, unknown subclasses), or a
    degenerate fleet where every row has a single knot (no segments to
    search).  Fallbacks are recorded on the ``core.pack.fallback``
    counter, labelled by the blocking class, so they show up in
    ``repro stats`` instead of silently losing an order of magnitude.

    This is the hook that lets callers pack **once** per fleet and reuse
    the arrays across many partition calls through the algorithms'
    ``pack=`` parameter, instead of re-packing on every call.
    """
    if _PACKING_DISABLED:
        return None
    if len(speed_functions) < 2:
        _record_pack("fallback", "fleet_too_small")
        return None
    rows, blocked = _lower(speed_functions)
    if blocked is not None:
        _record_pack("fallback", type(speed_functions[blocked]).__name__)
        return None
    if max(r.num_knots for r in _distinct(rows)) < 2:
        _record_pack("fallback", "degenerate_knots")
        return None
    _record_pack("fast_path")
    return PiecewiseLinearSet(speed_functions, rows=rows)


def make_allocator(
    speed_functions: Sequence[SpeedFunction],
) -> Callable[[float], np.ndarray]:
    """Fastest available ``slope -> allocations`` callable for a set.

    Uses :class:`PiecewiseLinearSet` when the whole fleet compiles through
    the knot protocol, and the generic per-object loop otherwise.
    One-shot convenience around :func:`pack_speed_functions`; repeated
    callers should pack once.
    """
    packed = pack_speed_functions(speed_functions)
    if packed is not None:
        return packed.allocations

    def generic(slope: float) -> np.ndarray:
        return np.array(
            [sf.intersect_ray(slope) for sf in speed_functions], dtype=float
        )

    return generic
