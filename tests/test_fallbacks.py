"""Fallback branches: membership by enumeration, apex de-electrification,
and the distance-formula report when no grid point fits."""

import itertools

import pytest

from hhskit import groups
from hhskit.coneoff import build_coneoff, de_electrify
from hhskit.errors import Inconclusive, TruncatedPiece
from hhskit.graph_core import MetricGraph, Subgraph
from hhskit.hhs_checks import DEFAULT_K_GRID
from hhskit.hhs_core import distance_formula_fit, trivial_instance

# Z^2 * Z = <a, b, c | [a, b]>; <a c> is not generated by single letters,
# so its membership goes to the breadth-first enumeration
R = groups.raag_group(["a", "b", "c"], [("a", "b")])
AC = groups.SubgroupSpec(R, ["a c"], label="AC")


def path_graph(n):
    return MetricGraph(n, [(i, i + 1) for i in range(n - 1)])


def test_membership_enumeration_finds_element():
    assert groups.subgroup_membership(R, AC, R.parse("a c a c"))
    assert groups.subgroup_membership(R, AC, R.parse("c' a' c' a'"))


def test_membership_enumeration_cut_by_length_is_inconclusive():
    with pytest.raises(Inconclusive, match="length cap"):
        groups.subgroup_membership(R, AC, R.parse("a"))


def test_membership_enumeration_budget(monkeypatch):
    monkeypatch.setattr(groups, "MEMBERSHIP_BUDGET", 3)
    with pytest.raises(Inconclusive, match="MEMBERSHIP_BUDGET = 3"):
        groups.subgroup_membership(R, AC, R.parse("a c a c a c"))


def apex_coned_path():
    """A 6-vertex path whose member 0..3 is coned through apex vertex 6."""
    g = path_graph(6)
    cg = build_coneoff(g, [Subgraph(g, range(4))], clique_threshold=3)
    assert cg.apex_of == {0: 6}
    return cg


def test_apex_detour_becomes_member_geodesic():
    cg = apex_coned_path()
    record = de_electrify(cg, [5, 4, 3, 6, 0])
    assert record.output_path.vertices == (5, 4, 3, 2, 1, 0)
    assert record.pieces == ((0, (3, 2, 1, 0)),)


def test_path_ending_on_apex_is_truncated():
    cg = apex_coned_path()
    with pytest.raises(TruncatedPiece, match="apex"):
        de_electrify(cg, [1, 6])


def test_distance_formula_no_fit_report():
    """A threshold above every distance zeroes the projection sum, so no
    (K, C) of the grid bounds d_X on a 40-vertex path."""
    n, s = 40, 100
    fit = distance_formula_fit(trivial_instance(path_graph(n)), s=s)
    K, C = DEFAULT_K_GRID[-1]
    bad = []
    for u, v in itertools.combinations(range(n), 2):
        d = v - u
        total = d if d >= s else 0
        if not (d <= K * total + C and total <= K * d + C):
            bad.append((u, v))
    assert fit["K"] is None and fit["C"] is None
    assert fit["violations"] == len(bad) > 0
    assert fit["witnesses"] == bad[:8]
    assert fit["pairs"] == n * (n - 1) // 2
