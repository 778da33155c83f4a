"""Layer benchmarks of the structure constructions, with pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_hhs_core.py --benchmark-json OUT.json

Three layers on F2 = F(a, b) and Z = F(a): the absorption of <a>'s line
structure into the trivial structure on the r=5 ball
(``build_augmented_structure``, with the embedding verdict computed once
outside the timed call), the product of two r=4 lines (``product_hhs``),
and ``check_consistency`` on the factor-system instance of the r=5 ball
with the cosets of <a> and <b>.  Every round gets fresh graphs and a fresh
instance, so no round reads distances, projections or relative
projections that an earlier one cached.
"""

import pytest

from hhskit import groups as G
from hhskit.embedding import build_augmented_structure, check_hh_embedded
from hhskit.factor_system import build_hhs_from_factor_system, family_from_cosets
from hhskit.groups import SubgroupSpec
from hhskit.hhs_core import check_consistency, instance_from_ball, product_hhs

F2 = G.free_group(["a", "b"])
LINE = G.free_group(["a"])
SUB_A = SubgroupSpec(F2, ["a"], label="A")
SUB_B = SubgroupSpec(F2, ["b"], label="B")


def test_build_augmented_structure_f2_r5(benchmark):
    verdict = check_hh_embedded(instance_from_ball(G.cayley_ball(F2, 5)),
                                [SUB_A], seed=3)

    def fresh():
        base = instance_from_ball(G.cayley_ball(F2, 5))
        line = instance_from_ball(G.cayley_ball(LINE, 5), label="line")
        return (base, [(SUB_A, line)]), {"embed_report": verdict, "seed": 3}

    aug = benchmark.pedantic(build_augmented_structure, setup=fresh, rounds=5)
    assert aug.result.n_indices() == 1 + aug.result.meta["cosets"]


def test_product_hhs_lines_r4(benchmark):
    def fresh():
        return tuple(instance_from_ball(G.cayley_ball(LINE, 4), label=lab)
                     for lab in ("L1", "L2")), {}

    prod = benchmark.pedantic(product_hhs, setup=fresh, rounds=20)
    assert prod.X.n == 81


def test_check_consistency_factor_f2_r5(benchmark):
    def fresh():
        inst = build_hhs_from_factor_system(
            family_from_cosets(G.cayley_ball(F2, 5), [SUB_A, SUB_B]))
        return (inst,), {"seed": 1}

    rep = benchmark.pedantic(check_consistency, setup=fresh, rounds=3)
    assert rep.kappa0 == 0
