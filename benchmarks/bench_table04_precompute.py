"""Table 4: pre-computation cost on candidate new edges."""

import pytest

from repro.bench.experiments import table4_precompute


@pytest.mark.parametrize("city", ["chicago", "nyc"])
def test_table4_precompute(benchmark, city):
    result = benchmark.pedantic(
        table4_precompute, args=(city,), rounds=1, iterations=1
    )
    assert result["new_edges"] > 0
    assert result["connectivity_s"] > 0
    # The probe-free increments are faster than the Hutchinson reference
    # and far closer to dense eigvalsh.
    assert result["total_exact_s"] < result["total_hutchinson_s"]
    assert result["exact_median_rel_err"] < 1e-6
    assert result["exact_median_rel_err"] < result["hutchinson_median_rel_err"]
