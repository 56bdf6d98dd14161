"""tests/fingerprint.py, the corpus digests used to compare two checkouts."""

import re

import fingerprint


def test_fingerprint_digests_a_small_slice_of_each_corpus():
    small = dict(random_lps=5, long_seeds=range(1), rungs=((8, 6, 2),), convex=range(2),
                 commitment=range(2), flawed=range(1), fixtures=fingerprint.FIXTURES[:1],
                 exact_counts=range(2, 4), partitions=range(1), lloyd_states=range(2, 3),
                 bimodal=range(1), grid_dims=range(1, 2))
    first = list(fingerprint.digests(**small))
    assert [name for name, _ in first] == [
        "random_lp seed 83 x5",
        "long_lp 0-0",
        "ladder_lp 8x6x2",
        "random_convex_market 0-1",
        "random_commitment_market 0-1",
        "infeasible and unbounded commitment markets 0-0",
        "clear bids_price_formation.json",
        "clear bids_price_formation.json --sweep-pi",
        "solve_exact L 2-3",
        "partition --solver exact 0-0",
        "solve_lloyd fixture S 2-2, bimodal 0-0, grids k 1-1",
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in first)
    assert len({digest for _, digest in first}) == len(first)
    assert list(fingerprint.digests(**small)) == first
    small["random_lps"] = 6
    assert next(fingerprint.digests(**small))[1] != first[0][1]


def test_fingerprint_instances_split_each_corpus():
    small = dict(random_lps=2, long_seeds=range(1), rungs=(), convex=range(1),
                 commitment=range(0), flawed=range(0), fixtures=(), exact_counts=range(0),
                 partitions=range(0), lloyd_states=range(0), bimodal=range(0),
                 grid_dims=range(0))
    split = list(fingerprint.digests(instances=True, **small))
    assert [name for name, _ in split] == [
        "random_lp seed 83 x2 #0",
        "random_lp seed 83 x2 #1",
        "long_lp 0-0 #0",
        "random_convex_market 0-0 #0",
    ]
    # a corpus of one instance has that instance's digest
    whole = dict(fingerprint.digests(**small))
    assert whole["long_lp 0-0"] == split[2][1]
    assert whole["random_convex_market 0-0"] == split[3][1]
    one = next(fingerprint.digests(**{**small, "random_lps": 1}))
    assert one[1] == split[0][1]


def test_fingerprint_names_an_empty_slice_none():
    assert fingerprint._span(range(0)) == "none"
    assert fingerprint._span(range(2, 7)) == "2-6"
    empty = dict(random_lps=0, long_seeds=range(0), rungs=(), convex=range(0),
                 commitment=range(0), flawed=range(0), fixtures=(), exact_counts=range(0),
                 partitions=range(0), lloyd_states=range(0), bimodal=range(0),
                 grid_dims=range(0))
    names = [name for name, _ in fingerprint.digests(**empty)]
    assert "long_lp none" in names
    assert "solve_lloyd fixture S none, bimodal none, grids k none" in names


def test_fingerprint_only_prints_the_corpora_with_the_prefix(capsys):
    small = dict(random_lps=2, long_seeds=range(1), rungs=((8, 6, 2), (8, 8, 4)),
                 convex=range(1), commitment=range(0), flawed=range(0), fixtures=(),
                 exact_counts=range(0), partitions=range(0), lloyd_states=range(0),
                 bimodal=range(0), grid_dims=range(0))
    everything = dict(fingerprint.digests(**small))
    only = list(fingerprint.digests(only="ladder_lp", **small))
    assert only == [(name, everything[name]) for name in ("ladder_lp 8x6x2", "ladder_lp 8x8x4")]
    assert list(fingerprint.digests(only="ladder_lp 8x8", instances=True, **small)) == [
        ("ladder_lp 8x8x4 #0", everything["ladder_lp 8x8x4"])
    ]
    fingerprint.main(["--only", "ladder_lp 8x6x2"])
    assert capsys.readouterr().out == f"{everything['ladder_lp 8x6x2']}  ladder_lp 8x6x2\n"
