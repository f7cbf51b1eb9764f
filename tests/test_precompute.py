"""Unit tests for the pre-computation stage (Section 6 / Table 4)."""

import dataclasses
import importlib

import numpy as np
import pytest

from repro.core.config import PlannerConfig, PrecomputeSpec
from repro.core.planner import run_method
from repro.core.precompute import (
    Precomputation,
    connectivity_gains,
    precompute,
    rebind,
)
from repro.data.datasets import CITY_NAMES, canned_city, canned_config
from repro.data.synth import (
    generate_hotspots,
    generate_road_network,
    generate_transit_network,
)
from repro.serve.pool import precomputation_nbytes
from repro.spectral.connectivity import (
    NaturalConnectivityEstimator,
    natural_connectivity_exact,
    natural_connectivity_quadrature,
)
from repro.utils.errors import ValidationError

eigs_module = importlib.import_module("repro.spectral.eigs")


class TestPrecompute:
    def test_artifacts_present(self, small_pre):
        pre = small_pre
        assert pre.n_candidate_edges > 0
        assert np.isfinite(pre.lambda_base)
        assert pre.d_max > 0 and pre.lambda_max > 0
        assert pre.path_bound_increment > 0
        assert len(pre.top_eigenvalues) >= 2 * pre.config.k or (
            len(pre.top_eigenvalues) == pre.universe.n_stops
        )
        assert pre.road is not None

    def test_existing_edges_zero_delta(self, small_pre):
        uni = small_pre.universe
        existing = ~uni.is_new
        assert np.all(uni.delta[existing] == 0.0)

    def test_new_edge_deltas_nonnegative(self, small_pre):
        assert (small_pre.universe.delta >= 0).all()
        assert small_pre.universe.delta.max() > 0

    def test_normalizers_follow_eq12(self, small_pre):
        pre = small_pre
        assert pre.d_max == pytest.approx(pre.L_d.top_sum(pre.config.k))
        assert pre.lambda_max == pytest.approx(pre.L_lambda.top_sum(pre.config.k))

    def test_L_e_combines_both(self, small_pre):
        pre = small_pre
        w = pre.config.w
        for idx in (0, len(pre.universe) - 1):
            want = (
                w * pre.universe.demand[idx] / pre.d_max
                + (1 - w) * pre.universe.delta[idx] / pre.lambda_max
            )
            assert pre.L_e.value(idx) == pytest.approx(want)

    def test_timings_recorded(self, small_pre):
        assert {"candidate_edges_s", "base_spectrum_s", "increments_s"} <= set(
            small_pre.timings
        )

    def test_lambda_base_close_to_exact(self, small_dataset, small_pre):
        exact = natural_connectivity_exact(small_dataset.transit.adjacency())
        assert small_pre.lambda_base == pytest.approx(exact, rel=1e-13)

    def test_one_eigvalsh_and_no_quadrature_below_the_cutoff(
        self, small_dataset, small_config, monkeypatch
    ):
        def refuse(A):
            raise AssertionError("quadrature below the dense cutoff")

        solves = []
        eigvalsh = eigs_module._eigvalsh
        monkeypatch.setattr(
            eigs_module, "_eigvalsh", lambda A: solves.append(A.shape) or eigvalsh(A)
        )
        monkeypatch.setattr(
            importlib.import_module("repro.core.precompute"),
            "natural_connectivity_quadrature", refuse,
        )
        n = precompute(small_dataset, small_config).universe.n_stops
        assert solves == [(n, n)]


class TestConfigFieldAudit:
    """What a saved artifact leaves on disk."""

    def test_save_leaves_no_staging_litter(self, small_pre, tmp_path):
        import os

        small_pre.save(str(tmp_path / "pre"))
        names = sorted(os.listdir(tmp_path))
        assert names == ["pre.json", "pre.npz"]


class TestIncrementModes:
    def test_unknown_mode_rejected(self, small_pre):
        with pytest.raises(ValidationError, match="'exact' or 'hutchinson'"):
            PlannerConfig(increment_mode="sketch")
        pair = next(e.pair for e in small_pre.universe.edges if e.is_new)
        with pytest.raises(ValidationError, match="bogus"):
            connectivity_gains(
                small_pre.builder, small_pre.estimator, small_pre.lambda_base,
                [[pair]], "bogus",
            )

    def test_hutchinson_mode_is_the_estimator(self, small_dataset, small_config):
        """The reference mode prices ``lambda_base`` and ``Delta(e)`` with
        the Lanczos + Hutchinson estimator, as the paper does."""
        pre = precompute(small_dataset, small_config.variant(increment_mode="hutchinson"))
        assert pre.lambda_base == pre.estimator.estimate(pre.builder.base())
        new = [e.index for e in pre.universe.edges if e.is_new][:5]
        want = np.maximum(
            pre.estimator.estimate_batch(
                pre.builder.base(), [[pre.universe.edge(i).pair] for i in new]
            ) - pre.lambda_base,
            0.0,
        )
        assert pre.universe.delta[new].tobytes() == want.tobytes()

    def test_hutchinson_mode_builds_one_estimator_per_precompute_or_load(
        self, small_dataset, small_config, tmp_path, monkeypatch
    ):
        built = []
        init = NaturalConnectivityEstimator.__init__

        def counted(self, n, *args, **kwargs):
            built.append(n)
            init(self, n, *args, **kwargs)

        monkeypatch.setattr(NaturalConnectivityEstimator, "__init__", counted)
        config = small_config.variant(increment_mode="hutchinson")
        prefix = str(tmp_path / "artifact")
        precompute(small_dataset, config).save(prefix)
        loaded = Precomputation.load(prefix, small_dataset, config)
        for method in ("eta-pre", "vk-tsp"):
            run_method(rebind(loaded, config.variant(w=0.3)), method)
        assert built == [small_dataset.transit.n_stops] * 2


class TestConnectivityGains:
    """One function prices Delta(e), a round's extensions and a route."""

    @staticmethod
    def _groups(pre):
        new = [e.pair for e in pre.universe.edges if e.is_new]
        return [[], [new[0]], new[1:3], [], new[3:7]]

    @staticmethod
    def _pricing_calls(monkeypatch, pre, batched):
        """The sets handed to each pricing call, recorded per call.

        ``batched=False`` installs the sequential reference this suite
        supplies: each set gets its own gain-kernel call in the exact
        mode and its own ``estimate`` of the extended matrix in the
        Hutchinson mode.
        """
        module = importlib.import_module("repro.core.precompute")
        kernel = module.block_lanczos_gains
        calls = []

        def spy(A, pair_sets, trace_base):
            calls.append(list(pair_sets))
            return kernel(A, pair_sets, trace_base)

        def one_set_per_call(A, pair_sets, trace_base):
            return np.concatenate([spy(A, [s], trace_base) for s in pair_sets])

        def estimate_each(estimator, A_base, pair_sets):
            calls.extend([s] for s in pair_sets)
            return np.array(
                [estimator.estimate(pre.builder.extended(s)) for s in pair_sets]
            )

        monkeypatch.setattr(
            module, "block_lanczos_gains", spy if batched else one_set_per_call
        )
        if not batched:
            monkeypatch.setattr(
                NaturalConnectivityEstimator, "estimate_batch", estimate_each
            )
        return calls

    @pytest.mark.parametrize("batched", [True, False])
    def test_empty_group_is_zero_and_free(self, small_pre, monkeypatch, batched):
        calls = self._pricing_calls(monkeypatch, small_pre, batched)
        gains = small_pre.connectivity_gains([[], []])
        assert gains.tolist() == [0.0, 0.0]
        assert calls == []

    @pytest.mark.parametrize("batched", [True, False])
    def test_one_evaluation_per_nonempty_group(self, small_pre, monkeypatch, batched):
        calls = self._pricing_calls(monkeypatch, small_pre, batched)
        gains = small_pre.connectivity_gains(self._groups(small_pre))
        assert [len(sets) for sets in calls] == ([3] if batched else [1, 1, 1])
        assert gains[0] == gains[3] == 0.0

    @pytest.mark.parametrize("batched", [True, False])
    def test_gains_are_clamped_at_zero(self, small_pre, monkeypatch, batched):
        calls = self._pricing_calls(monkeypatch, small_pre, batched)
        above_every_estimate = small_pre.lambda_base + 1.0
        estimator = NaturalConnectivityEstimator(small_pre.builder.n)
        gains = connectivity_gains(
            small_pre.builder, estimator, above_every_estimate,
            self._groups(small_pre), "hutchinson",
        )
        assert gains.tolist() == [0.0] * 5
        assert len(calls) == (0 if batched else 3)

    @pytest.mark.parametrize("batched", [True, False])
    def test_one_set_named_many_ways_is_priced_once(
        self, small_pre, monkeypatch, batched
    ):
        (a, b), (c, d) = [e.pair for e in small_pre.universe.edges if e.is_new][:2]
        groups = [
            [(a, b), (c, d)],
            [(c, d), (a, b)],  # reordered
            [(b, a), (d, c)],  # flipped
            [(a, b), (c, d), (b, a)],  # a duplicate pair
            [(a, b), (c, d)],  # a duplicate group
        ]
        calls = self._pricing_calls(monkeypatch, small_pre, batched)
        gains = small_pre.connectivity_gains(groups)
        assert [len(sets) for sets in calls] == [1]
        assert gains[0] > 0
        assert gains.tobytes() == np.full(len(groups), gains[0]).tobytes()
        alone = small_pre.connectivity_gains(groups[2:3])
        assert alone.tobytes() == gains[:1].tobytes()

    def test_modes_agree_per_group(self, small_pre):
        """Groups priced in one call gain what each gains in its own call."""
        groups = self._groups(small_pre)
        together = small_pre.connectivity_gains(groups)
        alone = np.concatenate([small_pre.connectivity_gains([g]) for g in groups])
        assert together.tobytes() == alone.tobytes()

    def test_single_pair_groups_are_the_precomputed_deltas(self, small_pre):
        uni = small_pre.universe
        new = [e.index for e in uni.edges if e.is_new]
        gains = small_pre.connectivity_gains([[uni.edge(i).pair] for i in new])
        assert gains.tobytes() == uni.delta[new].tobytes()


class TestRebind:
    def test_w_change_updates_L_e_only(self, small_pre):
        re = rebind(small_pre, small_pre.config.variant(w=1.0))
        assert re.universe is small_pre.universe
        assert re.d_max == small_pre.d_max
        # w=1: L_e must be pure normalized demand.
        idx = int(np.argmax(small_pre.universe.demand))
        assert re.L_e.value(idx) == pytest.approx(
            small_pre.universe.demand[idx] / re.d_max
        )

    def test_k_change_updates_normalizers(self, small_pre):
        re = rebind(small_pre, small_pre.config.variant(k=4))
        assert re.d_max == pytest.approx(small_pre.L_d.top_sum(4))
        assert re.path_bound_increment != small_pre.path_bound_increment

    def test_k_growth_extends_eigenvalues(self, small_pre):
        big_k = len(small_pre.top_eigenvalues)  # force 2k beyond stored
        re = rebind(small_pre, small_pre.config.variant(k=big_k))
        assert len(re.top_eigenvalues) >= min(
            2 * big_k, small_pre.universe.n_stops
        ) or len(re.top_eigenvalues) == small_pre.universe.n_stops

    def test_tau_change_rejected(self, small_pre):
        with pytest.raises(ValueError):
            rebind(small_pre, small_pre.config.variant(tau_km=1.0))

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(PrecomputeSpec)]
    )
    def test_every_precompute_field_change_rejected(self, small_pre, name):
        # These fields built the estimator, Delta(e) and lambda_base: a
        # rebound config naming other values would describe numbers it
        # never produced.
        value = getattr(small_pre.config, name)
        if isinstance(value, bool):
            changed = not value
        elif isinstance(value, (int, float)):
            changed = value + 1
        else:
            changed = {"exact": "hutchinson", "hutchinson": "exact"}[value]
        with pytest.raises(ValueError, match=name):
            rebind(small_pre, small_pre.config.variant(**{name: changed}))

    def test_road_preserved(self, small_pre):
        re = rebind(small_pre, small_pre.config.variant(w=0.0))
        assert re.road is small_pre.road


# Cities up to 300 stops take the dense eigen path, so a spectrum of 2k
# eigenvalues is a prefix of any longer one, bit for bit.
PARITY_CITIES = [(city, "tiny") for city in CITY_NAMES] + [("chicago", "small")]
PARITY_VARIANTS = [
    {"k": 10, "w": 0.3},
    {"k": 45, "w": 0.8},  # 2k = 90 > the 60 eigenvalues saved at k = 30
    {"seed_count": 40, "max_turns": 1},
]


class TestRebindParity:
    """A rebound or reloaded artifact plans exactly like a fresh one.

    This is what sharing one artifact across every ``k`` and ``w`` rests
    on: the expensive half of precompute must not read a field outside
    the cache key.
    """

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("parity")
        out = {}
        for city, profile in PARITY_CITIES:
            ds = canned_city(city, profile)
            pre = precompute(ds, PlannerConfig())
            prefix = str(root / f"{city}-{profile}")
            pre.save(prefix)
            out[city, profile] = (ds, pre, prefix)
        return out

    @staticmethod
    def _numbers(pre):
        return (
            pre.universe.delta,
            pre.lambda_base,
            pre.d_max,
            pre.lambda_max,
            pre.path_bound_increment,
            np.array([pre.L_e.value(i) for i in range(len(pre.L_e))]),
        )

    @pytest.mark.parametrize("city, profile", PARITY_CITIES)
    def test_rebind_and_load_equal_fresh(self, saved, city, profile):
        ds, pre, prefix = saved[city, profile]
        for overrides in PARITY_VARIANTS:
            config = pre.config.variant(**overrides)
            fresh = precompute(ds, config)
            want = self._numbers(fresh)
            plan = dataclasses.replace(run_method(fresh, "eta-pre"), runtime_s=0.0)
            for got in (rebind(pre, config), Precomputation.load(prefix, ds, config)):
                for a, b in zip(self._numbers(got), want):
                    assert np.array_equal(a, b), overrides
                n = min(len(got.top_eigenvalues), len(fresh.top_eigenvalues))
                assert n >= min(2 * config.k, ds.transit.n_stops)
                assert np.array_equal(
                    got.top_eigenvalues[:n], fresh.top_eigenvalues[:n]
                )
                replan = run_method(got, "eta-pre")
                assert dataclasses.replace(replan, runtime_s=0.0) == plan, overrides


class TestAboveDenseCutoff:
    """The precompute of a city too large for one dense ``eigvalsh``.

    No canned tiny, small or bench city is that large, so the dense
    cutoff is lowered to 50 and small chicago (56 stops) stands in for
    a ``paper``-profile city.
    """

    @pytest.fixture(autouse=True)
    def cutoff(self, monkeypatch):
        monkeypatch.setattr(eigs_module, "_DENSE_CUTOFF", 50)

    @pytest.fixture(scope="class")
    def chicago(self):
        return canned_city("chicago", "small")

    def test_lambda_base_is_exact_or_the_hutchinson_estimate(self, chicago):
        """The exact mode's lambda_base is the unit-column quadrature; the
        hutchinson mode keeps the fixed-probe estimate, bit for bit."""
        dense = natural_connectivity_exact(chicago.transit.adjacency())
        assert dense == pytest.approx(0.9631, abs=1e-4)
        for config in [PlannerConfig(), PlannerConfig(k=10, w=0.2, tau_km=0.4)]:
            pre = precompute(chicago, config)
            assert pre.universe.n_stops == 56
            assert abs(pre.lambda_base - dense) <= 1e-12
        pre = precompute(chicago, PlannerConfig(increment_mode="hutchinson"))
        estimate = NaturalConnectivityEstimator(56).estimate(pre.builder.base())
        assert pre.lambda_base == estimate
        assert estimate == pytest.approx(0.9412, abs=1e-4)

    def test_the_exact_mode_builds_no_estimator(self, chicago, tmp_path, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the exact mode built an estimator")

        monkeypatch.setattr(NaturalConnectivityEstimator, "__init__", refuse)
        config = PlannerConfig(k=10, max_iterations=100)
        pre = precompute(chicago, config)
        prefix = str(tmp_path / "artifact")
        pre.save(prefix)
        loaded = Precomputation.load(prefix, chicago, config)
        rebound = rebind(loaded, config.variant(k=8, w=0.3))
        for method in ("eta", "eta-pre"):
            run_method(rebound, method)
        assert precomputation_nbytes(rebound) > 0
        assert pre.estimator is loaded.estimator is rebound.estimator is None

    def test_top_eigenvalues_match_dense(self, chicago):
        pre = precompute(chicago, PlannerConfig(k=10))
        dense = np.linalg.eigvalsh(pre.builder.base().toarray())[::-1]
        assert len(pre.top_eigenvalues) == 20
        np.testing.assert_allclose(pre.top_eigenvalues, dense[:20], atol=1e-8)

    def test_eta_pre_route_matches_below_the_cutoff(self, chicago, monkeypatch):
        config = PlannerConfig(k=10)
        above = run_method(precompute(chicago, config), "eta-pre")
        monkeypatch.undo()
        below = run_method(precompute(chicago, config), "eta-pre")
        assert above.route.edge_indices == below.route.edge_indices

    def test_cache_hit_at_a_larger_k_restores_the_wider_spectrum_once(
        self, chicago, tmp_path, monkeypatch
    ):
        from repro.sweep.cache import PrecomputationCache

        cache = PrecomputationCache(str(tmp_path))
        stores = []
        store = cache.store

        def counted_store(pre, dataset):
            stores.append(pre)
            return store(pre, dataset)

        monkeypatch.setattr(cache, "store", counted_store)
        steps = []
        for k in (10, 10, 30, 30):
            pre, hit = cache.fetch_or_compute(chicago, PlannerConfig(k=k))
            steps.append((k, hit, len(stores), cache.n_entries))
            assert len(pre.top_eigenvalues) >= min(2 * k, 56)
        assert steps == [
            (10, False, 1, 1),  # a miss computes and stores 20 eigenvalues
            (10, True, 1, 1),   # a plain hit
            (30, True, 2, 1),   # a hit that widens to 56 and re-stores
            (30, True, 2, 1),   # a plain hit on the wider spectrum
        ]
        assert len(stores[-1].top_eigenvalues) == 56


class TestPaperSizeLambda:
    """The quadrature lambda on ``paper`` networks above the dense cutoff.

    Only the road, hotspots and transit network are built, with no
    trips: well under a second per city.
    """

    @pytest.mark.parametrize("city, n_stops", [("queens", 653), ("chicago", 1449)])
    def test_quadrature_matches_dense(self, city, n_stops):
        cfg = canned_config(city, "paper")
        road = generate_road_network(cfg)
        transit = generate_transit_network(cfg, road, generate_hotspots(cfg, road))
        A = transit.adjacency()
        assert A.shape[0] == n_stops > eigs_module._DENSE_CUTOFF
        dense = natural_connectivity_exact(A)
        assert abs(natural_connectivity_quadrature(A) - dense) <= 1e-12
