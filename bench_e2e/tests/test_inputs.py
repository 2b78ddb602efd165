from bench_e2e.inputs import make_trees, stratified_lengths

LENGTHS = stratified_lengths(12, 2.9, 0.55, 4, 250)


def describe(trees):
    return [(t.shape_profile, t.words(), t.to_arrays().labels.tolist())
            for t in trees]


def test_same_seed_gives_identical_inputs():
    assert describe(make_trees(7, LENGTHS)) == describe(make_trees(7, LENGTHS))


def test_another_seed_gives_other_trees_of_the_same_total_size():
    a, b = make_trees(7, LENGTHS), make_trees(8, LENGTHS)
    assert describe(a) != describe(b)
    assert sum(t.num_nodes for t in a) == sum(t.num_nodes for t in b) \
        == 2 * sum(LENGTHS) - len(LENGTHS)
    # the seed also decides which length lands in which slot
    assert [t.num_leaves for t in a] != [t.num_leaves for t in b]
    assert sorted(t.num_leaves for t in a) == sorted(LENGTHS)


def test_stratified_lengths_are_clipped_quantiles():
    lengths = stratified_lengths(48, 2.3, 0.55, 4, 60)
    assert list(lengths) == sorted(lengths)
    assert min(lengths) == 4 and max(lengths) <= 60
    # the median quantile sits at exp(mean_log)
    assert 9 <= lengths[24] <= 11
