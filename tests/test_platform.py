"""Tests for the Platform model."""

import numpy as np
import pytest

from repro.core import ConfigurationError, Platform


class TestConstruction:
    def test_basic(self):
        p = Platform([100.0, 200.0], [50.0, 50.0, 50.0])
        assert p.num_ingress == 2
        assert p.num_egress == 3

    def test_uniform(self):
        p = Platform.uniform(4, 6, 125.0)
        assert p.num_ingress == 4
        assert p.num_egress == 6
        assert np.all(p.ingress_capacity == 125.0)

    def test_paper_platform(self):
        p = Platform.paper_platform()
        assert p.num_ingress == p.num_egress == 10
        assert p.bin(0) == 1000.0
        assert p.half_capacity == 10_000.0

    def test_grid5000(self):
        p = Platform.grid5000()
        assert p.num_ingress == 8
        assert p.total_capacity > 0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Platform([], [100.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            Platform([100.0, 0.0], [100.0])
        with pytest.raises(ConfigurationError):
            Platform([100.0], [-5.0])

    def test_capacities_immutable(self):
        p = Platform.uniform(2, 2, 10.0)
        with pytest.raises(ValueError):
            p.ingress_capacity[0] = 99.0


class TestAccessors:
    def test_bin_bout(self):
        p = Platform([10.0, 20.0], [30.0, 40.0])
        assert p.bin(1) == 20.0
        assert p.bout(0) == 30.0

    def test_bottleneck(self):
        p = Platform([10.0, 20.0], [30.0, 5.0])
        assert p.bottleneck(1, 0) == 20.0
        assert p.bottleneck(1, 1) == 5.0

    def test_totals(self):
        p = Platform([10.0, 20.0], [30.0, 40.0])
        assert p.total_capacity == 100.0
        assert p.half_capacity == 50.0


class TestEqualitySerialisation:
    def test_roundtrip(self):
        p = Platform([10.0, 20.0], [30.0])
        assert Platform.from_dict(p.to_dict()) == p

    def test_equality(self):
        assert Platform.uniform(2, 2, 5.0) == Platform.uniform(2, 2, 5.0)
        assert Platform.uniform(2, 2, 5.0) != Platform.uniform(2, 2, 6.0)
        assert Platform.uniform(2, 2, 5.0) != "not a platform"

    def test_hash_consistent(self):
        a = Platform.uniform(3, 3, 7.0)
        b = Platform.uniform(3, 3, 7.0)
        assert hash(a) == hash(b)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_capacities_are_refused(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            Platform([bad], [1.0])
        with pytest.raises(ConfigurationError, match="finite"):
            Platform([1.0, 2.0], [3.0, bad])

    @pytest.mark.parametrize("capacity", ["nan", "inf"])
    def test_grid_serve_refuses_a_non_finite_capacity(self, capacity, capsys):
        from repro.serve.cli import _parser, build_app, main

        with pytest.raises(ConfigurationError, match="finite"):
            build_app(_parser().parse_args(["--capacity", capacity]))
        assert main(["--capacity", capacity, "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("grid-serve: ") and "finite" in err and err.count("\n") == 1


class TestArraysAndTuples:
    """The capacities are tuples underneath; the arrays and every
    comparison read exactly as they did when arrays were the storage."""

    def test_arrays_are_read_only_float64_and_cached(self):
        p = Platform([10, 20.5], (30.0,))
        for arr, want in ((p.ingress_capacity, [10.0, 20.5]), (p.egress_capacity, [30.0])):
            assert arr.dtype == np.float64 and arr.ndim == 1
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, want)
        assert p.ingress_capacity is p.ingress_capacity
        assert isinstance(p.bin(0), float) and p.bin(0) == 10.0

    def test_array_input_reads_the_same(self):
        arr = np.array([125.0, 1250.0])
        assert Platform(arr, arr) == Platform([125.0, 1250.0], [125.0, 1250.0])
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            Platform(np.ones((2, 1)), [1.0])
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            Platform([[1.0]], [1.0])

    def test_max_capacity_reads_the_tuples(self):
        p = Platform([10.0, 20.5], [30.0, 5.0])
        assert p.max_capacity == 30.0
        assert "ingress_capacity" not in vars(p) and "egress_capacity" not in vars(p)
        q = Platform.grid5000()
        assert q.max_capacity == float(max(q.ingress_capacity.max(), q.egress_capacity.max()))
        assert Platform([7.0], [2.0]).max_capacity == 7.0

    def test_equality_and_hash_ignore_the_cached_arrays(self):
        a, b = Platform.grid5000(), Platform.grid5000()
        a.ingress_capacity  # noqa: B018 - builds a's arrays only
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert Platform([1.0], [2.0]) != Platform([2.0], [1.0])
        assert Platform([1.0], [2.0]) != Platform([1.0, 1.0], [2.0])

    def test_frozen(self):
        p = Platform.uniform(2, 2, 10.0)
        with pytest.raises(AttributeError):
            p._ingress = (1.0, 1.0)  # type: ignore[misc]

    def test_to_dict_and_repr_are_unchanged(self):
        p = Platform([1250.0, 0.1], [1e9 / 7])
        assert p.to_dict() == {"ingress_capacity": [1250.0, 0.1], "egress_capacity": [1e9 / 7]}
        assert repr(Platform.uniform(1, 2, 5.0)) == (
            "Platform(ingress_capacity=array([5.]), egress_capacity=array([5., 5.]))"
        )
