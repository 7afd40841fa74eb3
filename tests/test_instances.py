"""Tests for instance generators and the instance file format."""

import re

import numpy as np
import pytest

import mnlbandit.oracle as oracle
from mnlbandit.instances import (
    FAMILIES,
    format_instance,
    generate_instance,
    lower_bound_instance,
    parse_instance,
    read_instance,
    write_instance,
)
from mnlbandit.model import Instance


def first_draw(family, n, k, seed):
    """The family's first draw from its seeded stream: ``r``, then ``v``."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    r = rng.uniform(0.0, 1.0, size=n)
    low, high = {"uniform": (0.0, 1.0), "dense": (0.5, 1.0), "sparse": (0.5 / k, 1.5 / k)}[family]
    return r, np.minimum(1.0, rng.uniform(low, high, size=n))


class TestGenerate:
    def test_family_listing(self):
        assert FAMILIES == ("uniform", "dense", "sparse", "lower-bound")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            generate_instance("normal", 4, 2, seed=1)

    def test_random_families_need_a_seed(self):
        for family in ("uniform", "dense", "sparse"):
            with pytest.raises(ValueError):
                generate_instance(family, 4, 2)

    def test_lower_bound_needs_gaps(self):
        with pytest.raises(ValueError):
            generate_instance("lower-bound", 4, 2, seed=1)

    @pytest.mark.parametrize("family", ["uniform", "dense", "sparse"])
    @pytest.mark.parametrize(
        "n, k, message",
        [(3, 0, "k must satisfy"), (3, 4, "k must satisfy"), (0, 1, "n must be")],
    )
    def test_shape_is_checked_before_any_draw(self, family, n, k, message):
        with pytest.raises(ValueError, match=message):
            generate_instance(family, n, k, seed=1)

    def test_deterministic_in_the_seed(self):
        a = generate_instance("uniform", 6, 3, seed=42)
        b = generate_instance("uniform", 6, 3, seed=42)
        np.testing.assert_array_equal(a.r, b.r)
        np.testing.assert_array_equal(a.v, b.v)
        c = generate_instance("uniform", 6, 3, seed=43)
        assert not np.array_equal(a.v, c.v)

    def test_uniform_ranges(self):
        inst = generate_instance("uniform", 8, 4, seed=7)
        assert inst.n == 8 and inst.k == 4
        r, v = np.asarray(inst.r), np.asarray(inst.v)
        assert np.all((r >= 0) & (r <= 1))
        assert np.all((v >= 0) & (v <= 1))

    def test_dense_weights_are_heavy(self):
        inst = generate_instance("dense", 8, 4, seed=7)
        assert np.all(np.asarray(inst.v) >= 0.5)

    def test_sparse_weights_scale_with_capacity(self):
        inst = generate_instance("sparse", 8, 4, seed=7)
        v = np.asarray(inst.v)
        assert np.all(v >= 0.5 / 4)
        assert np.all(v <= 1.5 / 4)

    @pytest.mark.parametrize("family", ["uniform", "dense", "sparse"])
    def test_first_draw_at_any_n_and_no_solve(self, family, monkeypatch):
        # near-tied first draws are kept: uniform 20/10 seed 92 (margin 3.1e-7),
        # dense 50/5 seed 54 (2.8e-7) and uniform 4000/100 seed 3 (1.6e-7)
        def solve(*args):
            raise AssertionError("generate_instance ran an oracle solve")

        monkeypatch.setattr(oracle, "fractional_optimum", solve)  # the oracle's one loop
        with pytest.raises(AssertionError, match="ran an oracle solve"):
            oracle.exact_optimum(generate_instance(family, 4, 2, seed=0))  # the patch holds
        for n, k, seed in [(4, 2, 0), (20, 10, 92), (50, 5, 54), (4000, 100, 3),
                           (100_000, 1_000, 3)]:
            inst = generate_instance(family, n, k, seed=seed)
            r, v = first_draw(family, n, k, seed)
            assert inst.n == n and inst.k == k
            assert np.array(inst.r).tobytes() == r.tobytes()
            assert np.array(inst.v).tobytes() == v.tobytes()

    #: past every 32-bit word boundary of SeedSequence's entropy: one word up
    #: to 2**32 - 1, two up to 2**64 - 1, then three and four, and seven words,
    #: past its pool of four
    SEEDS = [*range(200), 2**32, 2**64 - 1, 2**64, 2**100 + 7, 98765432109876543210,
             2**200 + 5]

    @pytest.mark.parametrize("family", ["uniform", "dense", "sparse"])
    def test_the_draw_is_numpys_bit_for_bit(self, family):
        cases = [(n, k, seed) for seed in self.SEEDS for n in (1, 2, 3, 8, 20, 257)
                 for k in sorted({1, (n + 1) // 2, n} if family == "sparse" else {1})]
        cases += [(4000, k, seed) for seed in [*range(5), *self.SEEDS[200:]] for k in (1, 100)]
        for n, k, seed in cases:
            inst = generate_instance(family, n, k, seed=seed)
            r, v = first_draw(family, n, k, seed)
            assert [x.hex() for x in inst.r] == [x.hex() for x in r.tolist()], (n, k, seed)
            assert [x.hex() for x in inst.v] == [x.hex() for x in v.tolist()], (n, k, seed)

    def test_a_numpy_integer_seed_draws_as_its_value(self):
        for seed in (np.int64(7), np.uint64(2**64 - 1), np.uint32(0)):
            inst, want = (generate_instance("sparse", 5, 1, seed=x) for x in (seed, int(seed)))
            assert (inst.r, inst.v) == (want.r, want.v)

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be a non-negative integer, got -1"),
         (-(2**64), f"seed must be a non-negative integer, got {-(2**64)}"),
         (True, "seed must be an integer, got True"),
         (False, "seed must be an integer, got False"),
         (np.True_, f"seed must be an integer, got {np.True_!r}"),
         (5.0, "seed must be an integer, got 5.0"),
         ("5", "seed must be an integer, got '5'"),
         ([1, 2], "seed must be an integer, got [1, 2]"),
         ((5,), "seed must be an integer, got (5,)")],
    )
    @pytest.mark.parametrize("family", ["uniform", "dense", "sparse"])
    def test_the_seed_is_a_non_negative_integer(self, family, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_instance(family, 4, 2, seed=seed)

    def test_lower_bound_passthrough(self):
        inst = generate_instance("lower-bound", 4, 2, gaps=[0.01, 0.02])
        assert inst.n == 4 and inst.k == 2

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_lower_bound_refuses_gaps_that_round_onto_a_tie(self, k):
        # 2^-54 v_k moves v_k by at least its last place; 2^-57 v_k by under half of it
        pivot = 1.0 if k == 1 else 1.0 / (2 * k)
        fine, tiny = pivot * 2.0**-54, pivot * 2.0**-57
        inst = lower_bound_instance(2 * k, k, [fine] * k)
        assert inst.v[k - 1] == pivot and np.all(np.asarray(inst.v[k:]) < pivot)
        message = (f"gap {tiny!r} is below float resolution: item {2 * k}'s weight "
                   f"rounds onto v_{k} = {pivot!r}, a gap of 0")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lower_bound_instance(2 * k, k, [fine] * (k - 1) + [tiny])


class TestFormat:
    def test_roundtrip_is_bit_exact(self):
        for seed in range(5):
            inst = generate_instance("uniform", 6, 3, seed=seed)
            text = format_instance(inst, {"seed": str(seed)})
            back, meta = parse_instance(text)
            assert back.n == inst.n and back.k == inst.k
            np.testing.assert_array_equal(back.r, inst.r)
            np.testing.assert_array_equal(back.v, inst.v)
            assert meta == {"seed": str(seed)}

    def test_file_roundtrip(self, tmp_path):
        inst = generate_instance("dense", 5, 2, seed=3)
        path = str(tmp_path / "example.inst")
        write_instance(path, inst, {"family": "dense"})
        back, meta = read_instance(path)
        np.testing.assert_array_equal(back.r, inst.r)
        np.testing.assert_array_equal(back.v, inst.v)
        assert meta["family"] == "dense"

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nn = 2\nk = 1\nr = 0.5, 1\nv = 0.25, 0.125\n"
        inst, meta = parse_instance(text)
        assert inst.n == 2 and inst.k == 1
        np.testing.assert_array_equal(inst.v, [0.25, 0.125])
        assert meta == {}

    def test_error_names_the_bad_line(self):
        text = "n = 2\nk = 1\nnot a key value pair\nr = 0.5, 1\nv = 0.2, 0.1\n"
        with pytest.raises(ValueError, match="line 3"):
            parse_instance(text)

    def test_duplicate_key_rejected(self):
        text = "n = 2\nn = 3\nk = 1\nr = 0.5, 1\nv = 0.2, 0.1\n"
        with pytest.raises(ValueError, match="duplicate"):
            parse_instance(text)

    def test_duplicate_meta_key_rejected(self):
        text = "n = 2\nk = 1\nr = 0.5, 1\nv = 0.2, 0.1\nmeta.seed = 1\nmeta.seed = 2\n"
        with pytest.raises(ValueError, match=r"^line 6: duplicate key 'meta.seed'$"):
            parse_instance(text)

    def test_unknown_key_rejected(self):
        text = "n = 2\nk = 1\nr = 0.5, 1\nv = 0.2, 0.1\nq = 7\n"
        with pytest.raises(ValueError, match="unknown key"):
            parse_instance(text)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing required key"):
            parse_instance("n = 2\nk = 1\nr = 0.5, 1\n")

    def test_malformed_number_rejected(self):
        text = "n = 2\nk = 1\nr = 0.5, oops\nv = 0.2, 0.1\n"
        with pytest.raises(ValueError, match="malformed numeric"):
            parse_instance(text)

    def test_out_of_range_values_rejected_by_the_model(self):
        text = "n = 2\nk = 1\nr = 0.5, 2.0\nv = 0.2, 0.1\n"
        with pytest.raises(ValueError):
            parse_instance(text)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("a = b", "x"),  # would read back as key 'a', value 'b = x'
            ("a=b", "x"),
            ("note", "two\nlines"),
            ("note", "two\rlines"),  # str.splitlines splits these too
            ("note", "two\u2028lines"),
            ("two\nlines", "x"),
            ("k ", "x"),  # edge whitespace is stripped on reading
            (" k", "x"),
            ("note", " padded "),
            ("note", "x\t"),
        ],
    )
    def test_meta_that_would_not_read_back_is_refused(self, tmp_path, key, value):
        inst = Instance(n=2, k=1, r=[0.5, 0.25], v=[0.5, 0.5])
        with pytest.raises(ValueError, match="would not read back the same"):
            write_instance(str(tmp_path / "x.inst"), inst, {key: value})
        assert not (tmp_path / "x.inst").exists()

    def test_accepted_meta_reads_back_the_same(self, tmp_path):
        inst = Instance(n=2, k=1, r=[0.5, 0.25], v=[0.5, 0.5])
        meta = {"a.b-c d": "x = y, # z", "gaps": "0.002,0.002", "empty": ""}
        path = str(tmp_path / "x.inst")
        write_instance(path, inst, meta)
        assert read_instance(path)[1] == meta

    def test_meta_keys_sorted_in_output(self):
        inst = Instance(n=2, k=1, r=[0.5, 0.25], v=[0.5, 0.5])
        text = format_instance(inst, {"b": "2", "a": "1"})
        assert text.index("meta.a") < text.index("meta.b")
