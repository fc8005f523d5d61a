"""Tests for the Request / RequestSet data model."""

import json
from functools import partial

import numpy as np
import pytest

from repro.core import InvalidRequestError, Request, RequestSet
from repro.core.request import check_request, deadline_rate


def make_request(**kw):
    defaults = dict(rid=0, ingress=0, egress=1, volume=1000.0, t_start=0.0, t_end=100.0, max_rate=50.0)
    defaults.update(kw)
    return Request(**defaults)


class TestRequestValidation:
    def test_valid(self):
        r = make_request()
        assert r.min_rate == pytest.approx(10.0)

    def test_negative_volume(self):
        with pytest.raises(InvalidRequestError):
            make_request(volume=-1.0)

    def test_zero_volume(self):
        with pytest.raises(InvalidRequestError):
            make_request(volume=0.0)

    def test_empty_window(self):
        with pytest.raises(InvalidRequestError):
            make_request(t_end=0.0)

    def test_inverted_window(self):
        with pytest.raises(InvalidRequestError):
            make_request(t_start=200.0)

    def test_max_rate_below_min_rate(self):
        # window implies MinRate 10; max_rate 5 is structurally unservable
        with pytest.raises(InvalidRequestError):
            make_request(max_rate=5.0)

    def test_nonpositive_max_rate(self):
        with pytest.raises(InvalidRequestError):
            make_request(max_rate=0.0)

    @pytest.mark.parametrize("field", ["volume", "t_start", "t_end", "max_rate"])
    def test_nan_is_refused_in_every_field(self, field):
        # NaN compares false with everything: ``volume <= 0`` let it through.
        with pytest.raises(InvalidRequestError):
            make_request(**{field: float("nan")})

    def test_infinite_volume_in_an_endless_window_is_refused(self):
        # MinRate is inf / inf = NaN; only the NaN-proof MaxRate test sees it.
        with pytest.raises(InvalidRequestError):
            make_request(volume=float("inf"), t_end=float("inf"), max_rate=float("inf"))

    def test_same_index_pair_is_legal(self):
        # ingress and egress index different port sets (single-pair case, §3)
        r = make_request(ingress=0, egress=0)
        assert r.ingress == r.egress == 0

    @pytest.mark.parametrize(
        "fields",
        [
            dict(volume=-1.0), dict(volume=float("nan")), dict(t_end=0.0), dict(t_start=7.0, t_end=3.0),
            dict(max_rate=0.0), dict(max_rate=9.0), dict(max_rate=float("nan")),
            dict(volume=float("inf"), t_end=float("inf"), max_rate=float("inf")),
        ],
        ids=repr,
    )  # fmt: skip
    def test_check_request_refuses_what_building_one_refuses(self, fields):
        """The edge checks a submission without building a Request: the
        same test, the same message."""
        fields = {**dict(rid=4, volume=1000.0, t_start=0.0, t_end=100.0, max_rate=50.0), **fields}
        with pytest.raises(InvalidRequestError) as built:
            make_request(**fields)
        with pytest.raises(InvalidRequestError) as checked:
            check_request(**fields)
        assert str(checked.value) == str(built.value)
        assert str(built.value).startswith("request 4: ")


class TestRequestDerived:
    def test_min_rate(self):
        r = make_request(volume=500.0, t_start=10.0, t_end=60.0)
        assert r.min_rate == pytest.approx(10.0)

    def test_rigid_classification(self):
        rigid = Request.rigid(1, 0, 1, volume=1000.0, t_start=0.0, t_end=100.0)
        assert rigid.is_rigid
        assert rigid.max_rate == pytest.approx(rigid.min_rate)

    def test_flexible_classification(self):
        r = make_request(max_rate=100.0)
        assert not r.is_rigid

    def test_min_duration(self):
        r = make_request(max_rate=100.0)
        assert r.min_duration == pytest.approx(10.0)

    def test_deadline_rate(self):
        r = make_request()  # vol 1000, window [0, 100], MaxRate 50
        rate = partial(deadline_rate, r.volume, r.t_end, r.max_rate)
        assert rate(0.0) == pytest.approx(10.0)
        assert rate(50.0) == pytest.approx(20.0)
        assert rate(80.0) == pytest.approx(50.0)
        assert rate(90.0) is None  # 100 MB/s would be needed
        assert rate(100.0) is None
        assert rate(150.0) is None

    def test_with_rid(self):
        r = make_request()
        r2 = r.with_rid(99)
        assert r2.rid == 99
        assert r2.volume == r.volume


class TestRequestSerialisation:
    def test_dict_is_json_safe(self):
        json.dumps(make_request().to_dict())


class TestRequestSet:
    def _set(self, n=5):
        return RequestSet(
            make_request(rid=i, t_start=float(10 - i), t_end=float(110 - i)) for i in range(n)
        )

    def test_len_iter_getitem(self):
        rs = self._set()
        assert len(rs) == 5
        assert [r.rid for r in rs] == [0, 1, 2, 3, 4]
        assert rs[0].rid == 0
        assert isinstance(rs[1:3], RequestSet)
        assert len(rs[1:3]) == 2

    def test_duplicate_rids_rejected(self):
        with pytest.raises(InvalidRequestError):
            RequestSet([make_request(rid=1), make_request(rid=1)])

    def test_by_rid(self):
        rs = self._set()
        assert rs.by_rid(3).rid == 3
        with pytest.raises(KeyError):
            rs.by_rid(42)

    def test_sorted_by_arrival(self):
        rs = self._set().sorted_by_arrival()
        starts = [r.t_start for r in rs]
        assert starts == sorted(starts)

    def test_sorted_by_arrival_tie_break_min_rate(self):
        a = make_request(rid=0, volume=2000.0)  # min_rate 20
        b = make_request(rid=1, volume=1000.0)  # min_rate 10
        rs = RequestSet([a, b]).sorted_by_arrival()
        assert [r.rid for r in rs] == [1, 0]

    def test_as_arrays(self):
        arrays = self._set().as_arrays()
        assert arrays["rid"].shape == (5,)
        assert np.all(arrays["min_rate"] > 0)
        np.testing.assert_allclose(
            arrays["min_rate"], arrays["volume"] / (arrays["t_end"] - arrays["t_start"])
        )

    def test_time_span(self):
        rs = self._set()
        t0, t1 = rs.time_span()
        assert t0 == 6.0
        assert t1 == 110.0
        assert RequestSet().time_span() == (0.0, 0.0)

    def test_breakpoints_sorted_unique(self):
        rs = RequestSet(
            [
                make_request(rid=0, t_start=0.0, t_end=10.0, volume=100.0, max_rate=100.0),
                make_request(rid=1, t_start=0.0, t_end=5.0, volume=100.0, max_rate=100.0),
            ]
        )
        bp = rs.breakpoints()
        assert list(bp) == [0.0, 5.0, 10.0]

    def test_total_volume(self):
        assert self._set(3).total_volume() == pytest.approx(3000.0)

    def test_contains(self):
        rs = self._set()
        assert rs[0] in rs
