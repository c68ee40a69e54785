"""The shared checkers and the sweep-input enumerator of tests/checkers.py."""

from cominuscule import Decoration, sweep_inputs

from checkers import check_every_type, decorations, sweep_decorations


def test_every_type_to_rank_8_passes_the_root_cap_checks():
    # the entry point CI runs to rank 45; 31 canonical types up to rank 8
    assert check_every_type(8) == 31


def test_the_enumerator_yields_each_decoration_once_in_bit_order():
    def by_bits(rank, start):
        # node i crossed when bit i is set
        return [
            Decoration(tuple(bool(bits >> i & 1) for i in range(rank)))
            for bits in range(start, 1 << rank)
        ]

    for rank in range(1, 11):
        assert list(decorations(rank, empty=True)) == by_bits(rank, 0)
    want = [(t, d) for t in sweep_inputs(10) for d in by_bits(t.total_rank, 1)]
    assert list(sweep_decorations(10)) == want
    assert len(set(want)) == len(want) == 8591
