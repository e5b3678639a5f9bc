"""Regression tests for UtilisationReport / peak_utilisation edge cases.

Two historical confusions: resource suffix matching must never treat a
*node* whose name contains a resource word as that resource
(``"nic0.cpu"`` is a CPU on node nic0, not a NIC), and zero-elapsed or
NaN inputs must render as ``0.00``, never ``nan``.
"""

import math

from repro.metrics import peak_utilisation
from repro.metrics.report import NodeUtilisation, UtilisationReport


class TestPeakUtilisation:
    def test_bare_key_matches_resource_exactly(self):
        assert peak_utilisation({"ring": 0.3}, "ring") == 0.3
        assert peak_utilisation({"ynet": 0.8}, "ynet") == 0.8

    def test_suffix_matching_is_strict(self):
        utils = {"host.nic": 0.7, "site0.nic": 0.5}
        assert peak_utilisation(utils, "nic") == 0.7

    def test_node_named_like_a_resource_never_matches(self):
        # "nic" must not match the cpu of a node that contains "nic".
        utils = {"nic0.cpu": 0.9, "mechanic.disk": 0.8, "site0.nic": 0.4}
        assert peak_utilisation(utils, "nic") == 0.4
        assert peak_utilisation(utils, "cpu") == 0.9
        assert peak_utilisation(utils, "disk") == 0.8

    def test_empty_mapping_yields_zero(self):
        assert peak_utilisation({}, "cpu") == 0.0

    def test_no_matching_resource_yields_zero(self):
        assert peak_utilisation({"site0.cpu": 0.9}, "disk") == 0.0

    def test_non_finite_values_are_ignored(self):
        utils = {"site0.cpu": float("nan"), "site1.cpu": 0.2,
                 "site2.cpu": float("inf")}
        assert peak_utilisation(utils, "cpu") == 0.2
        assert peak_utilisation({"site0.cpu": float("nan")}, "cpu") == 0.0


class TestUtilisationReportEdges:
    def _nan_report(self):
        rows = [
            NodeUtilisation(name="site0", cpu=float("nan"),
                            disk=float("nan"), nic=None),
            NodeUtilisation(name="site1", cpu=0.25, disk=0.5, nic=0.1),
        ]
        return UtilisationReport(0.0, rows)

    def test_zero_elapsed_renders_zero_not_nan(self):
        report = self._nan_report()
        for text in (report.to_markdown(), str(report)):
            assert "nan" not in text.lower()
            assert "0.00" in text

    def test_max_utilisation_skips_non_finite(self):
        utils = self._nan_report().as_dict()
        assert peak_utilisation(utils, "cpu") == 0.25
        assert peak_utilisation(utils, "disk") == 0.5

    def test_bottleneck_ignores_nan_rows(self):
        node, resource, value = self._nan_report().bottleneck()
        assert (node, resource) == ("site1", "disk")
        assert value == 0.5
        assert math.isfinite(value)
