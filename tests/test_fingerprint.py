"""tests/fingerprint.py, the corpus digests used to compare two checkouts."""

import re

import fingerprint


def test_fingerprint_digests_a_small_slice_of_each_corpus():
    small = dict(random_lps=5, long_seeds=range(1), rungs=((8, 6, 2),), convex=range(2),
                 commitment=range(2), flawed=range(1), fixtures=fingerprint.FIXTURES[:1])
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
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in first)
    assert len({digest for _, digest in first}) == len(first)
    assert list(fingerprint.digests(**small)) == first
    small["random_lps"] = 6
    assert next(fingerprint.digests(**small))[1] != first[0][1]
