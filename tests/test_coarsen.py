"""The merge pass that coarsens an agreement forest (``approx.coarsen``)."""

import random

import pytest

import mafkit as mk
from mafkit.approx import _MergePass

from helpers import approximate, joinable_by_removal
from test_deep_trees import ladder


def sweep(seed, count):
    """``count`` generated instances, n 4–9, m 2–4, rooted and unrooted in turn."""
    rng = random.Random(seed)
    for i in range(count):
        spec = mk.GenSpec(n=rng.randint(4, 9), m=rng.randint(2, 4), x=rng.randint(1, 3),
                          seed=rng.randrange(10**9), rooted=i % 2 == 0)
        yield mk.generate_instance(spec)


def singletons(instance):
    """The agreement forest that every instance has: each label alone."""
    f1 = instance.forests[0]
    return f1.remove_edges(list(f1.edge_ids()))


def test_coarsened_forests_certify_between_the_bounds():
    coarser = 0
    for inst in sweep(2026, 400):
        ares = approximate(inst)
        merged = mk.coarsen(inst, ares.forest)
        assert mk.certify(merged, inst).verify(inst)
        opt = mk.brute_force_maf(inst).opt_order
        assert ares.lower_bound() <= opt <= merged.order() <= ares.order, inst.name
        coarser += merged.order() < ares.order
    # the pass joins parts on most inputs
    assert coarser > 200


def test_pair_test_matches_the_removal_reference():
    # the pair test reads the kept owners and tops of every join before it,
    # so random pairs are tried, and joined where they can be, one by one
    rng = random.Random(11)
    verdicts = []
    for inst in sweep(11, 60):
        for start in (approximate(inst).forest, singletons(inst)):
            merge = _MergePass(inst, start)
            live = list(range(len(merge.parts)))
            for _ in range(3 * len(live)):
                if len(live) < 2:
                    break
                a, b = rng.sample(live, 2)
                parts = [frozenset(merge.parts[p]) for p in live]
                paths = merge.joinable(a, b)
                want = joinable_by_removal(inst, parts, parts[live.index(a)],
                                           parts[live.index(b)])
                assert (paths is not None) == want, (inst.name, merge.parts[a], merge.parts[b])
                verdicts.append(want)
                if paths is not None:
                    live = [p for p in live if p not in (a, b)] + [merge.join(a, b, paths)]
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


@pytest.mark.parametrize("rooted", [True, False])
def test_one_tree_coarsens_to_itself(rooted):
    tree = mk.generate_instance(mk.GenSpec(n=8, m=2, x=0, seed=3, rooted=rooted)).forests[0]
    inst = mk.Instance(rooted=rooted, forests=(tree,))
    assert mk.coarsen(inst, singletons(inst)).same_structure(tree)
    # nothing to join: the forest itself comes back
    assert mk.coarsen(inst, tree) is tree


def test_singletons_coarsen_to_the_optimum_on_small_pairs(rooted_pair, quartets,
                                                          identical_rooted):
    for inst, want in ((rooted_pair, 2), (quartets, 2), (identical_rooted, 1)):
        merged = mk.coarsen(inst, singletons(inst))
        assert merged.order() == want
        mk.certify(merged, inst)
    assert mk.coarsen(identical_rooted, singletons(identical_rooted)).same_structure(
        identical_rooted.forests[0])


def test_unrooted_single_edge_trees_join():
    inst = mk.parse_instance("(a,b);\n(a,b);", rooted=False)
    assert inst.forests[0].order() == 1 and len(inst.forests[0].edge_ids()) == 1
    merged = mk.coarsen(inst, singletons(inst))
    assert merged.same_structure(inst.forests[0])


def test_the_root_label_joins_from_above():
    # ρ hangs above everything: its part is the upper one of every pair
    inst = mk.parse_instance("((a,b),(c,d));\n((a,b),(c,d));", rooted=True)
    f1 = inst.forests[0]
    rho = f1.labels.id_of(mk.RHO)
    alone = f1.remove_edges([f1.pendant_edge(rho)])
    assert {rho} in [set(p) for p in alone.label_partition()]
    assert mk.coarsen(inst, alone).same_structure(f1)
    # ((a,b),c) against ((a,c),b), once a and b are joined: c sits below
    # the cherry in the second tree and beside it in the first, and the
    # cherry lies between c and ρ there, so only ρ joins the cherry
    pair = mk.parse_instance("((a,b),c);\n((a,c),b);", rooted=True)
    merge = _MergePass(pair, singletons(pair))
    table = pair.forests[0].labels
    ids = {table.name(next(iter(p))): i for i, p in enumerate(merge.parts)}
    ab = merge.join(ids["a"], ids["b"], merge.joinable(ids["a"], ids["b"]))
    live = [ab, ids[mk.RHO], ids["c"]]
    parts = [frozenset(merge.parts[p]) for p in live]
    for i, j, want in ((0, 2, False), (1, 2, False), (0, 1, True)):
        assert (merge.joinable(live[i], live[j]) is not None) == want
        assert joinable_by_removal(pair, parts, parts[i], parts[j]) == want


@pytest.mark.parametrize("rooted", [True, False])
def test_deep_ladders_go_through_the_pass(rooted, rng):
    # every leaf of a ladder hangs off one spine, so the singletons are all
    # next to each other: long paths, deep subtrees and many pairs.  The
    # approximation's forest, deeper than the recursion limit of 1,000,
    # starts the pass too
    def approximated(inst):
        return approximate(inst).forest

    for levels, start in ((1500, singletons), (1100, approximated)):
        text = ladder(levels, rng) + "\n" + ladder(levels, rng) + "\n"
        inst = mk.parse_instance(text, rooted)
        first = start(inst)
        merged = mk.coarsen(inst, first)
        assert merged.order() < first.order()
        mk.certify(merged, inst)


# rooted t40-2 x5, generator seeds 41–47, and t50-5 x2, seeds 41–43: the
# generator plants an agreement forest of order x·(m − 1) + 1
PLANTED = [(40, 2, 5, s) for s in range(41, 48)] + [(50, 5, 2, s) for s in range(41, 44)]


def test_merged_order_against_the_planted_bound():
    hits = 0
    for n, m, x, seed in PLANTED:
        spec = mk.GenSpec(n=n, m=m, x=x, seed=seed, rooted=True)
        inst = mk.generate_instance(spec)
        ares = mk.approx_rmaf(inst)
        merged = mk.coarsen(inst, ares.forest).order()
        hits += merged <= spec.order_bound()
        print(f"t{n}-{m} x{x} seed {seed}: k'={ares.order} merged={merged} "
              f"planted bound={spec.order_bound()}")
    # 7 of 10 when the pass was written; a weaker pass reaches fewer
    print(f"merged order within the planted bound on {hits}/{len(PLANTED)} inputs")
    assert hits >= 7, hits
