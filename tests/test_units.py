"""Tests for repro.units: formatting, constants."""

import math

from repro import units


class TestConstants:
    def test_volume_hierarchy(self):
        assert units.MB < units.GB < units.TB
        assert units.GB == 1000 * units.MB
        assert units.TB == 1000 * units.GB

    def test_time_hierarchy(self):
        assert units.MINUTE == 60.0
        assert units.HOUR == 60 * units.MINUTE
        assert units.DAY == 24 * units.HOUR

    def test_bandwidth(self):
        assert units.GBPS == 1000 * units.MBPS


class TestFormatting:
    def test_volume_roundtrip_scale(self):
        assert units.format_volume(1_000_000.0) == "1TB"
        assert units.format_volume(250_000.0) == "250GB"
        assert units.format_volume(5.0) == "5MB"

    def test_bandwidth(self):
        assert units.format_bandwidth(1000.0) == "1GB/s"
        assert units.format_bandwidth(10.0) == "10MB/s"

    def test_duration(self):
        assert units.format_duration(86400.0) == "1d"
        assert units.format_duration(7200.0) == "2h"
        assert units.format_duration(90.0) == "1.5min"
        assert units.format_duration(12.0) == "12s"

    def test_nonfinite(self):
        assert units.format_volume(math.inf) == "inf"
        assert units.format_duration(math.nan) == "nan"
