import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgeboot.rearrange import clip01, is_nondecreasing, rearrange_increasing


class TestRearrange:
    def test_sorting(self):
        assert rearrange_increasing([0.1, 0.3, 0.2]) == (0.1, 0.2, 0.3)

    def test_fixed_point(self):
        c = (0.0, 0.25, 0.5, 1.0)
        assert rearrange_increasing(c) == c

    def test_length_preserved(self):
        # one value per grid point in, one per grid point out
        assert len(rearrange_increasing(np.array([3.0, 1.0, 2.0]))) == 3


class TestClip:
    def test_examples(self):
        assert clip01([-0.01, 0.5, 1.02]) == (0.0, 0.5, 1.0)

    def test_already_inside(self):
        c = (0.2, 0.4)
        assert clip01(c) == c


class TestPlainSequences:
    @pytest.mark.parametrize("values", [[0.3, -0.2, 1.5], (0.3, -0.2, 1.5),
                                        np.array([0.3, -0.2, 1.5])])
    def test_any_sequence_in_a_tuple_out(self, values):
        assert rearrange_increasing(clip01(values)) == (0.0, 0.3, 1.0)
        assert not is_nondecreasing(values)


_values = st.lists(st.floats(-0.5, 1.5, allow_nan=False), min_size=1, max_size=40)


class TestProperties:
    @given(_values)
    @settings(max_examples=150, deadline=None)
    def test_multiset_preserved(self, values):
        out = rearrange_increasing(values)
        assert sorted(out) == sorted(values)
        assert is_nondecreasing(out)

    @given(_values)
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, values):
        once = rearrange_increasing(values)
        assert rearrange_increasing(once) == once

    @given(_values)
    @settings(max_examples=150, deadline=None)
    def test_commutes_with_clip(self, values):
        assert clip01(rearrange_increasing(values)) == rearrange_increasing(clip01(values))

    @given(_values)
    @settings(max_examples=150, deadline=None)
    def test_matches_kth_smallest_construction(self, values):
        out = rearrange_increasing(values)
        brute = tuple(sorted(values)[k] for k in range(len(values)))
        assert out == brute

    @given(_values, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_never_farther_from_monotone_targets(self, values, rnd):
        # Hardy-Littlewood-Polya: rearrangement is a contraction toward any
        # nondecreasing target on the same grid
        target = sorted(rnd.uniform(-0.5, 1.5) for _ in values)
        original = np.asarray(values)
        rearranged = np.asarray(rearrange_increasing(values))
        t = np.asarray(target)
        assert np.sum((rearranged - t) ** 2) <= np.sum((original - t) ** 2) + 1e-12
