"""A set of one candidate edge gains ``Delta(e)``, and is never priced again.

The precomputation prices every candidate edge's one-pair set once, as
``Delta(e)``. Online ETA scores a path with one new edge, and the
connectivity-first greedy scores its first round, from ``Delta(e)``
instead of sending that set back to the gain kernel. That is exact only
because the kernel of either increment mode prices a set independently
of the other sets in its call. Contract, in both increment modes:

* for every candidate edge of the tiny and small cities, ``Delta(e)``
  is bitwise the gain of its one-pair set priced inside a shuffled
  batch of mixed sets;
* eta and eta-all on the tiny cities hand neither kernel a set of one
  pair (a guard makes any such set fail the run), and plan bitwise what
  a strategy that prices every set plans;
* the connectivity-first greedy's first round prices nothing, and it
  picks the edges, and reports the total, that pricing every round
  gives, bitwise.
"""

import contextlib
import dataclasses
import functools
import importlib
import random
from unittest import mock

import numpy as np
import pytest

from repro.baselines.connectivity_first import greedy_connectivity_edges
from repro.core.config import PlannerConfig
from repro.core.eta import ExpansionEngine
from repro.core.objective import OnlineStrategy
from repro.core.planner import METHOD_TABLE
from repro.core.precompute import precompute, rebind
from repro.data.datasets import CITY_NAMES, canned_city
from repro.spectral.connectivity import NaturalConnectivityEstimator

# The package re-exports the function ``precompute`` under the module's name.
precompute_module = importlib.import_module("repro.core.precompute")

MODES = ("exact", "hutchinson")
PROFILES = [(city, profile) for profile in ("tiny", "small") for city in CITY_NAMES]


@functools.lru_cache(maxsize=None)
def _pre(city, profile, mode):
    config = PlannerConfig(k=8, max_iterations=60, seed_count=40, increment_mode=mode)
    return precompute(canned_city(city, profile), config)


@contextlib.contextmanager
def _no_one_pair_sets():
    """Fail any kernel call, in either mode, that prices a one-pair set.

    Yields the list of sets the kernels priced.
    """
    priced = []
    kernel = precompute_module.block_lanczos_gains
    estimate_batch = NaturalConnectivityEstimator.estimate_batch

    def refuse(pair_sets):
        lone = [s for s in pair_sets if len(s) == 1]
        assert not lone, f"one-pair set {lone[0]} sent to the kernel"
        priced.extend(pair_sets)

    def guarded_kernel(A, pair_sets, trace_base):
        refuse(pair_sets)
        return kernel(A, pair_sets, trace_base)

    def guarded_estimate_batch(estimator, A_base, pair_sets):
        refuse(pair_sets)
        return estimate_batch(estimator, A_base, pair_sets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(precompute_module, "block_lanczos_gains", guarded_kernel)
        mp.setattr(
            NaturalConnectivityEstimator, "estimate_batch", guarded_estimate_batch
        )
        yield priced


class _PricingEverySet(OnlineStrategy):
    """The reference: every set the run has not scored goes to the kernel,
    one-pair sets included."""

    def connectivity(self, paths):
        novel_pairs = self.pre.builder.novel_pairs
        keys = [tuple(novel_pairs(self.universe.new_pairs(ids))) for ids in paths]
        missing = [key for key in dict.fromkeys(keys) if key not in self._gains]
        if missing:
            gains = self.pre.connectivity_gains(missing)
            self._gains.update(zip(missing, gains.tolist()))
        return np.array([self._gains[key] for key in keys])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("city, profile", PROFILES)
def test_delta_is_the_one_pair_gain_in_a_mixed_batch(city, profile, mode):
    pre = _pre(city, profile, mode)
    uni = pre.universe
    new = [e.index for e in uni.edges if e.is_new]
    rng = random.Random(0)
    groups = [[uni.edge(i).pair] for i in new] + [
        [uni.edge(i).pair for i in rng.sample(new, min(len(new), rng.randint(2, 6)))]
        for _ in new
    ]
    order = list(range(len(groups)))
    rng.shuffle(order)
    gains = np.empty(len(groups))
    gains[order] = pre.connectivity_gains([groups[i] for i in order])
    assert gains[: len(new)].tobytes() == uni.delta[new].tobytes()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", ["eta", "eta-all"])
@pytest.mark.parametrize("city", CITY_NAMES)
def test_online_search_prices_no_one_pair_set(city, method, mode):
    strategy, overrides = METHOD_TABLE[method]
    pre = _pre(city, "tiny", mode)
    pre = rebind(pre, pre.config.variant(**overrides))
    with _no_one_pair_sets() as priced:
        got = ExpansionEngine(pre, strategy(pre)).run()
    want = ExpansionEngine(pre, _PricingEverySet(pre)).run()
    assert got.route is not None
    # Some sets were scored from Delta(e), so the guard had work to do.
    assert got.connectivity_evaluations > len(priced)
    assert dataclasses.replace(got, runtime_s=0.0) == dataclasses.replace(
        want, runtime_s=0.0
    )


def _greedy_pricing_every_round(pre, l_edges, shortlist):
    """The connectivity-first greedy with round 1 priced like the others."""
    uni = pre.universe
    candidates = sorted(np.flatnonzero(uni.is_new).tolist(), key=lambda i: -uni.delta[i])
    chosen, pairs = [], []
    for _ in range(min(l_edges, len(candidates))):
        pool = [i for i in candidates[:shortlist] if i not in chosen]
        gains = pre.connectivity_gains([pairs + [uni.edge(i).pair] for i in pool])
        chosen.append(pool[int(np.argmax(gains))])
        pairs.append(uni.edge(chosen[-1]).pair)
    return chosen, float(pre.connectivity_gains([pairs])[0])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("city, profile", PROFILES)
def test_connectivity_first_round_one_prices_nothing(city, profile, mode):
    pre = _pre(city, profile, mode)
    want_chosen, want_total = _greedy_pricing_every_round(pre, 10, 64)
    with mock.patch.object(
        pre, "connectivity_gains", wraps=pre.connectivity_gains
    ) as gains:
        chosen, total = greedy_connectivity_edges(pre, 10, 64)
    # Round r >= 2 prices sets of r pairs; the last call prices the total.
    widths = [len(call.args[0][0]) for call in gains.call_args_list]
    assert widths == list(range(2, len(chosen) + 1)) + [len(chosen)]
    assert chosen == want_chosen
    assert np.float64(total).tobytes() == np.float64(want_total).tobytes()
