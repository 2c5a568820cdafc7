"""Seeded inputs: fleets tiled from the Table-2 models and request streams.

Everything the system under test receives is a pure function of the
``--seed`` argument, so two runs with one seed send the same requests in
the same order.  Each purpose draws from its own generator, keyed by
``(seed, tag)``, so adding draws for one purpose never shifts another.
"""

from __future__ import annotations

from collections import deque

import numpy as np

#: The paper's Fig. 21 grid.
FIG21_PS = (270, 540, 810, 1080)
FIG21_NS = (125_000_000, 500_000_000, 1_000_000_000, 2_000_000_000)
FIG21_GRID = tuple((p, n) for p in FIG21_PS for n in FIG21_NS)

#: The served workloads plan for one fleet of this size.
SERVED_P = 1080
#: Problem sizes the served workloads draw from.
N_LO, N_HI = 100_000_000, 2_000_000_000
#: Observations carried by one ``observe`` request.
OBS_PER_REQUEST = 4
#: Ops a stream draws at a time.
_CHUNK = 1024

#: Generator tags, one per purpose.
TAG_FLEET, TAG_HOT, TAG_STREAM, TAG_ORDER, TAG_CERT = 1, 2, 3, 4, 5


def rng_for(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def table2_models() -> list:
    """The twelve Section-3.1 matmul models of the Table-2 testbed."""
    from repro.experiments import build_network_models
    from repro.machines import table2_network

    return build_network_models(table2_network(), "matmul")


def tiled_fleet(models: list, p: int, seed: int) -> list:
    """``p`` speed functions: the models in a seeded order, tiled."""
    order = rng_for(seed, TAG_FLEET).permutation(len(models))
    return [models[order[i % len(models)]] for i in range(p)]


def hot_set(seed: int, size: int) -> list[int]:
    """``size`` distinct problem sizes in ``[N_LO, N_HI]``."""
    rng = rng_for(seed, TAG_HOT)
    out: dict[int, None] = {}
    while len(out) < size:
        out[int(rng.integers(N_LO, N_HI + 1))] = None
    return list(out)


class RequestStream:
    """An endless seeded sequence of ``("plan", n)`` / ``("observe", recs)``.

    Plans draw from ``hot`` (uniformly, or Zipf-like with exponent
    ``zipf_s`` over the hot set's order) except for a ``fresh_share`` of
    never-repeated sizes; an ``observe_share`` of the ops are observation
    writes whose speeds come straight from the fleet's own models, so they
    always lie inside the models' bands.
    """

    def __init__(
        self,
        seed: int,
        hot: list[int],
        *,
        zipf_s: float | None = None,
        fresh_share: float = 0.0,
        observe_share: float = 0.0,
        speed_functions: list,
    ):
        self._rng = rng_for(seed, TAG_STREAM)
        self._hot = np.asarray(hot, dtype=np.int64)
        if zipf_s is None:
            self._weights = None
        else:
            w = 1.0 / np.arange(1, len(hot) + 1, dtype=float) ** zipf_s
            self._weights = w / w.sum()
        self._fresh_share = fresh_share
        self._observe_share = observe_share
        self._sfs = speed_functions
        self._seen = set(int(n) for n in hot)
        self._buf: deque = deque()
        self._obs_clock = 0

    def __iter__(self) -> "RequestStream":
        return self

    def __next__(self) -> tuple:
        if not self._buf:
            self._refill()
        return self._buf.popleft()

    def take(self, count: int) -> list[tuple]:
        return [next(self) for _ in range(count)]

    def _refill(self) -> None:
        rng, k = self._rng, _CHUNK
        kinds = rng.random(k)
        picks = rng.choice(len(self._hot), size=k, p=self._weights)
        fresh = rng.integers(N_LO, N_HI + 1, size=k)
        machines = rng.integers(0, len(self._sfs), size=(k, OBS_PER_REQUEST))
        fracs = rng.random((k, OBS_PER_REQUEST))
        for i in range(k):
            u = kinds[i]
            if u < self._observe_share:
                self._buf.append(("observe", self._observations(machines[i], fracs[i])))
            elif u < self._observe_share + self._fresh_share:
                n = int(fresh[i])
                while n in self._seen:
                    n = int(rng.integers(N_LO, N_HI + 1))
                self._seen.add(n)
                self._buf.append(("plan", n))
            else:
                self._buf.append(("plan", int(self._hot[picks[i]])))

    def _observations(self, machines, fracs) -> list[dict]:
        recs = []
        for m, f in zip(machines, fracs):
            sf = self._sfs[int(m)]
            lo, hi = float(sf.knot_sizes[0]), float(sf.knot_sizes[-1])
            size = float(np.exp(np.log(lo) + f * (np.log(hi) - np.log(lo))))
            self._obs_clock += 1
            recs.append({
                "machine": int(m), "size": size, "speed": float(sf.speed(size)),
                "timestamp": float(self._obs_clock), "source": "step",
            })
        return recs
