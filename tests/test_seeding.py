"""Known answers for the named substreams: every pipeline output depends
on these seeds, so a change to how name parts are hashed shows here."""

from dosids.seeding import substream, substream_seed


def test_substream_seed_known_answers():
    assert substream_seed(11, "aso") == 3353713995409936045
    assert substream_seed(11, "aso", "proxy") == 5899873495103479724
    assert substream_seed(0, "step", 3, 7) == 8931385129429771184
    assert substream_seed(2 ** 70, "gan", "DoS Hulk") == 1159346712695396663


def test_repeated_names_give_the_same_stream():
    first = substream(5, "step", 1, 2).random(4)
    for _ in range(3):
        assert (substream(5, "step", 1, 2).random(4) == first).all()
    assert substream_seed(5, "step", 1, 2) != substream_seed(5, "step", 2, 1)
