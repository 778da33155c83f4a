"""Every cap fails loudly, naming itself and its value.

Each cap is made small (by ``monkeypatch`` on its module constant, or by
the parameter that sets it) so that a small fixture reaches the raise.
"""

import pytest

from hhskit import coneoff, gog, graph_core, groups, hhs_core
from hhskit.coneoff import build_coneoff
from hhskit.errors import BudgetExceeded
from hhskit.factor_system import build_group_factor_closure, family_from_cosets
from hhskit.graph_core import (MetricGraph, RaggedSets, Subgraph,
                               four_point_delta, ragged_diameters)
from hhskit.groups import SubgroupSpec
from hhskit.hhs_core import (build_hhs_from_factor_system, instance_to_bundle,
                             product_hhs, trivial_instance)
from test_gog import amalgam

F2 = groups.free_group(["a", "b"])


def path_graph(n):
    return MetricGraph(n, [(i, i + 1) for i in range(n - 1)])


def test_matrix_cap(monkeypatch):
    monkeypatch.setattr(graph_core, "MATRIX_CAP", 7)
    g = path_graph(8)
    with pytest.raises(BudgetExceeded, match="MATRIX_CAP = 7"):
        g.oracle().matrix()


def test_exhaustive_quadruple_cap(monkeypatch):
    monkeypatch.setattr(graph_core, "EXHAUSTIVE_QUADRUPLE_CAP", 69)
    g = path_graph(8)   # C(8, 4) = 70 quadruples
    with pytest.raises(BudgetExceeded, match="EXHAUSTIVE_QUADRUPLE_CAP = 69"):
        four_point_delta(g)


def test_diameter_pair_cap(monkeypatch):
    monkeypatch.setattr(graph_core, "DIAMETER_PAIR_CAP", 9)
    g = path_graph(5)
    sets = RaggedSets.union([0] * 5, range(5), 1)   # one set, 10 pairs
    with pytest.raises(BudgetExceeded, match="DIAMETER_PAIR_CAP = 9"):
        ragged_diameters(g.oracle(), sets)


def test_cone_edge_cap(monkeypatch):
    monkeypatch.setattr(coneoff, "DEFAULT_CONE_EDGE_CAP", 9)
    g = path_graph(5)
    with pytest.raises(BudgetExceeded, match="DEFAULT_CONE_EDGE_CAP = 9"):
        build_coneoff(g, [Subgraph(g, range(5))])   # 10 clique edges


def test_ball_cap_raises(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 100)
    with pytest.raises(BudgetExceeded, match="DEFAULT_BALL_CAP = 100"):
        groups.cayley_ball(F2, 6)


def test_postmerge_cap(monkeypatch):
    monkeypatch.setattr(groups, "POSTMERGE_CAP", 1)
    ball = groups.cayley_ball(F2, 2)
    sub = SubgroupSpec(F2, ["a", "b b"], label="X")
    with pytest.raises(BudgetExceeded, match="POSTMERGE_CAP = 1"):
        groups.enumerate_cosets(ball, sub)


def test_closure_round_budget():
    ball = groups.cayley_ball(F2, 4)
    sub = SubgroupSpec(F2, ["a", "b b"], label="X")
    with pytest.raises(BudgetExceeded, match="budget = 0 rounds") as hit:
        build_group_factor_closure(ball, [sub], budget=0)
    assert hit.value.partial is not None


def test_product_cap(monkeypatch):
    monkeypatch.setattr(hhs_core, "PRODUCT_CAP", 8)
    a = trivial_instance(path_graph(3))
    with pytest.raises(BudgetExceeded, match="PRODUCT_CAP = 8"):
        product_hhs(a, a)   # 9 vertices
    assert product_hhs(a, trivial_instance(path_graph(2))).X.n == 6


def test_bundle_rho_cap():
    inst = build_hhs_from_factor_system(family_from_cosets(
        groups.cayley_ball(F2, 2), [SubgroupSpec(F2, ["a"], label="A")]))
    pairs = len(inst.eligible_rho_pairs()[0])
    assert pairs > 1
    with pytest.raises(BudgetExceeded, match=f"rho_cap = {pairs - 1}"):
        instance_to_bundle(inst, rho_cap=pairs - 1)
    instance_to_bundle(inst, rho_cap=pairs)


def test_tree_of_spaces_cap(monkeypatch):
    monkeypatch.setattr(gog, "TREE_OF_SPACES_CAP", 10)
    with pytest.raises(BudgetExceeded, match="TREE_OF_SPACES_CAP = 10"):
        gog.build_tree_of_spaces(amalgam(), "Q", 1, radius=2)
