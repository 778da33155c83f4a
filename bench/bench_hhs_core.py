"""Layer benchmarks of the structure constructions, with pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_hhs_core.py --benchmark-json OUT.json

On F2 = F(a, b) and Z = F(a): the absorption of <a>'s line structure into
the trivial structure on the r=5 ball (``build_augmented_structure``, which
only builds; the embedding verdict is its callers' and is not timed), the
product of two r=4 lines (``product_hhs``), and each check of the axiom
battery, timed apart, on three instances: the factor-system instances of
the r=4 and r=5 balls with the cosets of <a> and <b> (163 and 487
indices; the r=4 one is the structure ``tree-factor-system`` checks), and
the augmented instance above (244 indices, the structure
``amalgam-pipeline`` checks).
``check_hqc`` is timed on the r=4 factor-system instance with Y the
identity coset of <a>, and an exhaustive ``distance_formula_fit`` (s=3,
1,060,696 pairs) on the r=6 one.
``check_large_links`` and ``check_bgi`` are also timed on the r=6
factor-system instance (1459 indices; its top index has 1458 children),
``check_consistency`` (seed 11) on the r=7 one, one round (the peak RSS of
its fresh process is the larger of the build's and the check's), and
``check_structural`` on the r=7 one, three rounds (4375 indices, no
orthogonal pair, so no container case).  The factor-system instances are
built by ``instance_from_factor_system``, without the axiom verdict that
``build_hhs_from_factor_system`` computes first.
``rho_sets`` over every eligible pair (u nested in v or transverse to it)
is timed on the augmented r=5 instance (59,049 pairs) and on the r=6
factor-system instance; a ``rho_sets`` that takes one target index per
call (the column form) is asked one column per target.  The r=7
factor-system instance (4375 indices) is built and checked with the whole
battery in one timed call (``instance_from_factor_system`` then
``run_axiom_battery``, seed 11), one round.
On the F2 r=6 and r=7 balls (1457 and 4373 vertices; the r=7 ball is over
the 4096-vertex matrix cap, so its distances come from sweeps and the
block-cut tree), ``check_hyperbolically_embedded`` of <a> is timed with
its balls and cone-offs built in the timed call (the ball it is given
too), and ``relative_metric`` of <a> on the r=6 cone-off built in set-up.
``enumerate_cosets`` of the special subgroup <a, b> of F3 = F(a, b, c) is
timed on the r=5 ball (1563 cosets).  Every
round gets fresh graphs and a fresh instance, so no round reads distances,
projections or relative projections that an earlier one cached; a check
timed apart therefore also pays for the distance matrices it is the first
to ask for.
"""

import inspect

import numpy as np
import pytest

from hhskit import groups as G
from hhskit import hhs_checks
from hhskit.embedding import (build_augmented_structure,
                              check_hyperbolically_embedded,
                              coned_over_cosets, relative_metric)
from hhskit.factor_system import family_from_cosets
from hhskit.groups import SubgroupSpec, coset_subgraph, enumerate_cosets
from hhskit.hhs_core import (check_hqc, distance_formula_fit,
                             instance_from_ball, instance_from_factor_system,
                             product_hhs, run_axiom_battery)

F2 = G.free_group(["a", "b"])
F3 = G.free_group(["a", "b", "c"])
LINE = G.free_group(["a"])
SUB_A = SubgroupSpec(F2, ["a"], label="A")
SUB_B = SubgroupSpec(F2, ["b"], label="B")


def augmented_inputs():
    base = instance_from_ball(G.cayley_ball(F2, 5))
    line = instance_from_ball(G.cayley_ball(LINE, 5), label="line")
    return (base, [(SUB_A, line)]), {}


def augmented():
    (base, pairs), _ = augmented_inputs()
    return build_augmented_structure(base, pairs).result


def factor_f2(radius):
    return instance_from_factor_system(
        family_from_cosets(G.cayley_ball(F2, radius), [SUB_A, SUB_B]))


INSTANCES = {
    "factor_f2_r4": lambda: factor_f2(4),
    "factor_f2_r5": lambda: factor_f2(5),
    "augmented_f2_r5": augmented,
}
CHECKS = ("check_structural", "check_projection_lipschitz",
          "check_consistency", "check_large_links", "check_bgi",
          "check_partial_realization", "check_uniqueness")


def test_build_augmented_structure_f2_r5(benchmark):
    aug = benchmark.pedantic(build_augmented_structure,
                             setup=augmented_inputs, rounds=5)
    assert aug.result.n_indices() == 1 + aug.result.meta["cosets"]


def test_product_hhs_lines_r4(benchmark):
    def fresh():
        return tuple(instance_from_ball(G.cayley_ball(LINE, 4), label=lab)
                     for lab in ("L1", "L2")), {}

    prod = benchmark.pedantic(product_hhs, setup=fresh, rounds=20)
    assert prod.X.n == 81


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_battery_check(benchmark, instance, check):
    def fresh():
        return (INSTANCES[instance](),), {"seed": 1}

    benchmark.pedantic(getattr(hhs_checks, check), setup=fresh, rounds=3)


def fresh_factor_f2_r6():
    return (factor_f2(6),), {"seed": 1}


def test_hqc_factor_f2_r4(benchmark):
    def fresh():
        inst = factor_f2(4)
        ball = inst.meta["ball"]
        coset = coset_subgraph(ball, enumerate_cosets(ball, SUB_A)[0])
        return (inst, coset.vertices), {"seed": 1}

    got = benchmark.pedantic(check_hqc, setup=fresh, rounds=5)
    assert got.k_table


def test_distance_formula_exhaustive_factor_f2_r6(benchmark):
    got = benchmark.pedantic(distance_formula_fit,
                             setup=lambda: ((factor_f2(6), 3), {}), rounds=3)
    assert got["pairs"] == 1457 * 1456 // 2


def all_eligible_rho(inst):
    """rho_sets over every eligible pair: one call, or one per target index
    where rho_sets takes a single target."""
    us, vs = inst.eligible_rho_pairs()
    if "vs" in inspect.signature(inst.rho_sets).parameters:
        return len(inst.rho_sets(us, vs)[1])
    return sum(len(inst.rho_sets(us[vs == v], v)[1]) for v in np.unique(vs))


@pytest.mark.parametrize("instance", ["augmented_f2_r5", "factor_f2_r6"])
def test_rho_sets_all_eligible_pairs(benchmark, instance):
    build = {"augmented_f2_r5": augmented,
             "factor_f2_r6": lambda: fresh_factor_f2_r6()[0][0]}[instance]
    got = benchmark.pedantic(all_eligible_rho, setup=lambda: ((build(),), {}),
                             rounds=5)
    assert got == len(build().eligible_rho_pairs()[0])


def test_factor_f2_r7_build_and_battery(benchmark):
    def build_and_check(cand):
        return run_axiom_battery(instance_from_factor_system(cand), seed=11)

    def fresh():
        return (family_from_cosets(G.cayley_ball(F2, 7), [SUB_A, SUB_B]),), {}

    got = benchmark.pedantic(build_and_check, setup=fresh, rounds=1)
    assert got.structural.passed


def test_large_links_factor_f2_r6(benchmark):
    got = benchmark.pedantic(hhs_checks.check_large_links,
                             setup=fresh_factor_f2_r6, rounds=3)
    assert sorted(got["lambda_by_E"]) == list(hhs_checks.DEFAULT_E_GRID)


def test_bgi_factor_f2_r6(benchmark):
    got = benchmark.pedantic(hhs_checks.check_bgi, setup=fresh_factor_f2_r6,
                             rounds=3)
    assert got["observations"] > 0


def test_consistency_factor_f2_r7(benchmark):
    got = benchmark.pedantic(hhs_checks.check_consistency,
                             setup=lambda: ((factor_f2(7),), {"seed": 11}),
                             rounds=1)
    assert got.samples["rho_chain"]["mode"] == "sampled"


def hyperbolically_embedded_f2(benchmark, radius):
    def check():
        return check_hyperbolically_embedded(G.cayley_ball(F2, radius),
                                             [SUB_A], seed=3)

    got = benchmark.pedantic(check, rounds=3)
    assert got.passed


def test_structural_factor_f2_r7(benchmark):
    got = benchmark.pedantic(hhs_checks.check_structural,
                             setup=lambda: ((factor_f2(7),), {"seed": 1}),
                             rounds=3)
    assert got.passed and got.details["container_cases"] == 0


def test_hyperbolically_embedded_f2_r6(benchmark):
    hyperbolically_embedded_f2(benchmark, 6)


def test_hyperbolically_embedded_f2_r7(benchmark):
    hyperbolically_embedded_f2(benchmark, 7)


def test_relative_metric_f2_r6(benchmark):
    def fresh():
        ball = G.cayley_ball(F2, 6)
        return (ball, SUB_A, coned_over_cosets(ball, [SUB_A])), {}

    got = benchmark.pedantic(relative_metric, setup=fresh, rounds=10)
    assert got.row[0] == 0


def test_enumerate_cosets_f3_special_r5(benchmark):
    got = benchmark.pedantic(enumerate_cosets,
                             setup=lambda: ((G.cayley_ball(F3, 5),
                                             SubgroupSpec(F3, ["a", "b"])),
                                            {}),
                             rounds=5)
    assert len(got) == 1563
