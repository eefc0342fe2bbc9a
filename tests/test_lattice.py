"""Tests for occupations, paths, and compositions."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asep2l.errors import EnumerationCapExceeded
from asep2l.lattice import (
    LatticePath,
    Occupation,
    admit,
    composition_of,
    enumerate_occupations,
    enumerate_paths,
    is_motzkin,
    path_of,
    tau_from_path,
    xi_of,
)
from asep2l.weights import ModelParams, partition_Z

P = ModelParams(F(1, 2), F(1), F(2))


class TestOccupation:
    def test_string_round_trip(self):
        for s in ("", "0", "1", "0101", "11100"):
            assert str(Occupation.from_string(s)) == s

    def test_bits_and_sites(self):
        occ = Occupation.from_string("101")
        assert occ.bits() == (1, 0, 1)
        assert [occ.bit(j) for j in (1, 2, 3)] == [1, 0, 1]
        assert occ.count() == 2

    def test_site_out_of_range(self):
        with pytest.raises(IndexError):
            Occupation.from_string("10").bit(3)

    def test_rejects_bad_input(self):
        for text in ("012", "1_0", " 10"):  # int(text, 2) takes "_" and spaces
            with pytest.raises(ValueError):
                Occupation.from_string(text)
        with pytest.raises(ValueError):
            Occupation.from_bits([0, 2])
        with pytest.raises(ValueError):
            Occupation(2, 4)

    def test_concat_prepend_append(self):
        a = Occupation.from_string("10")
        assert str(a.prepend(0)) == "010"
        assert str(a.prepend(1)) == "110"
        assert str(a.append(0)) == "100"
        assert str(a.append(1)) == "101"
        assert str(a.concat(Occupation.from_string("011"))) == "10011"

    def test_enumeration_is_lexicographic(self):
        words = [str(o) for o in enumerate_occupations(3)]
        assert words == sorted(words)
        assert words == ["".join(b) for b in
                         ("000", "001", "010", "011", "100", "101", "110", "111")]
        assert len(list(enumerate_occupations(0))) == 1

    def test_enumeration_cap(self):
        # the operation is capped, the enumerator it walks is not
        with pytest.raises(EnumerationCapExceeded):
            partition_Z(15, P)
        assert len(list(enumerate_occupations(15))) == 2 ** 15

    def test_env_cap_override(self, monkeypatch):
        monkeypatch.setenv("ASEP_MAX_L", "2")
        with pytest.raises(EnumerationCapExceeded):
            partition_Z(3, P)
        assert partition_Z(3, P, max_L=3) > 0  # the explicit limit wins
        monkeypatch.setenv("ASEP_MAX_L", "16")
        admit("paths", 15)
        monkeypatch.setenv("ASEP_MAX_L", "ten")
        with pytest.raises(ValueError):
            admit("paths", 1)


class TestLatticePath:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            LatticePath([1, 2])
        with pytest.raises(ValueError):
            LatticePath([0, 2])
        with pytest.raises(ValueError):
            LatticePath([])

    def test_cached_statistics(self):
        g = LatticePath([0, 0, 0, 1, 2, 1, 0, 1, 0, 0, 0])
        assert (g.minimum, g.maximum, g.end, g.horizontal) == (0, 2, 0, 4)
        assert g.length == 10
        assert g.steps()[:4] == (0, 0, 1, 1)

    def test_reference_two_layer_path(self):
        tau = Occupation.from_string("1011001000")
        xi = Occupation.from_string("1000110100")
        g = path_of(tau, xi)
        assert g.values == (0, 0, 0, 1, 2, 1, 0, 1, 0, 0, 0)
        assert composition_of(g) == (7, 3, 1)

    def test_path_of_trivial_cases(self):
        tau = Occupation.from_string("0110")
        assert path_of(tau, tau).values == (0, 0, 0, 0, 0)
        up = path_of(Occupation.from_string("11"), Occupation.from_string("00"))
        assert up.values == (0, 1, 2)

    def test_path_of_length_mismatch(self):
        with pytest.raises(ValueError):
            path_of(Occupation.from_string("01"), Occupation.from_string("011"))

    def test_composition_examples(self):
        assert composition_of(LatticePath([0] * 5)) == (5,)
        assert composition_of(LatticePath([0, 1, 2])) == (1, 1, 1)

    def test_hashes_are_distinct_and_equal_for_equal_paths(self):
        paths = list(enumerate_paths(9))
        assert len({hash(g) for g in paths}) == len(paths) == 3**9
        for g in paths[::997]:
            twin = LatticePath(list(g.values))
            assert twin == g and twin is not g and hash(twin) == hash(g)
        # the leading digit keeps paths of different lengths apart
        assert hash(LatticePath([0])) != hash(LatticePath([0, -1]))

    def test_is_motzkin(self):
        assert is_motzkin(LatticePath([0, 0, 0]))
        assert is_motzkin(LatticePath([0, 1, 0]))
        assert not is_motzkin(LatticePath([0, -1, 0]))
        assert not is_motzkin(LatticePath([0, 1, 1]))


class TestEnumeration:
    def test_path_count_and_determinism(self):
        paths = list(enumerate_paths(3))
        assert len(paths) == 27
        assert paths == list(enumerate_paths(3))
        assert paths[0].values == (0, -1, -2, -3)
        assert paths[-1].values == (0, 1, 2, 3)

    @pytest.mark.parametrize("L", range(7))
    def test_paths_are_in_step_order(self, L):
        paths = list(enumerate_paths(L))
        assert len(paths) == 3**L
        assert paths == sorted(paths, key=LatticePath.steps)
        assert len(set(paths)) == len(paths)

    def test_paths_equal_their_checked_construction(self):
        # the enumerator carries each path's statistics instead of
        # running the constructor's checks and counts
        for L in range(9):
            for g in enumerate_paths(L):
                assert g == LatticePath(g.values)

    @pytest.mark.parametrize("L", range(11))
    def test_occupations_are_in_site_order(self, L):
        # site 1 varies slowest, as in product over the sites
        expected = [Occupation.from_bits(b) for b in product((0, 1), repeat=L)]
        assert list(enumerate_occupations(L)) == expected

    @pytest.mark.parametrize("L", range(1, 6))
    def test_pair_path_bijection(self, L):
        seen = {}
        for tau in enumerate_occupations(L):
            for xi in enumerate_occupations(L):
                g = path_of(tau, xi)
                key = (tau, g.values)
                assert key not in seen
                seen[key] = True
                assert xi_of(tau, g) == xi

    @pytest.mark.parametrize("L", range(1, 6))
    def test_composition_surjects_onto_all_compositions(self, L):
        found = {composition_of(g) for g in enumerate_paths(L)}
        expected = set()
        # compositions of L+1 from subsets of cut points
        for cuts in product((0, 1), repeat=L):
            parts = []
            run = 1
            for c in cuts:
                if c:
                    parts.append(run)
                    run = 1
                else:
                    run += 1
            parts.append(run)
            expected.add(tuple(parts))
        assert found == expected
        assert len(found) == 2 ** L

    @pytest.mark.parametrize("L", range(6))
    def test_composition_invariants(self, L):
        for g in enumerate_paths(L):
            comp = composition_of(g)
            assert sum(comp) == L + 1
            assert len(comp) == g.maximum - g.minimum + 1
            assert all(part >= 1 for part in comp)


class TestTauFromPath:
    def test_forced_steps(self):
        g = LatticePath([0, 1, 0])
        assert str(tau_from_path(g, [0, 0])) == "10"
        assert str(tau_from_path(g, [1, 1])) == "10"

    def test_level_steps_copy_eta(self):
        g = LatticePath([0, 0, 0, 0])
        assert str(tau_from_path(g, [0, 1, 1])) == "011"

    def test_mixed(self):
        g = LatticePath([0, 0, 1])
        assert str(tau_from_path(g, [1, 0])) == "11"

    def test_round_trip_with_path_of(self):
        for tau in enumerate_occupations(4):
            for xi in enumerate_occupations(4):
                g = path_of(tau, xi)
                assert tau_from_path(g, tau.bits()) == tau

    def test_eta_length_check(self):
        with pytest.raises(ValueError):
            tau_from_path(LatticePath([0, 0]), [0, 1])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    bits=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=7)
)
def test_path_round_trip_property(bits):
    tau = Occupation.from_bits([t for t, _ in bits])
    xi = Occupation.from_bits([x for _, x in bits])
    g = path_of(tau, xi)
    assert g.end == tau.count() - xi.count()
    assert xi_of(tau, g) == xi
    assert tau_from_path(g, tau.bits()) == tau
