"""Seed substreams: bit for bit NumPy's spawned children, without them."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nclp
from nclp.sampling import substreams

# seeds on each side of the 32-bit word boundaries, where the hash's key
# index moves (16 + 4 per word past the fourth)
EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 17, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1,
              2 ** 96, 2 ** 128 - 1, 2 ** 128, 2 ** 128 + 1, 10 ** 30, 10 ** 50,
              2 ** 160 - 1, 2 ** 160, 2 ** 192, 2 ** 200]


def spawned(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n)]


def assert_same_streams(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.bit_generator.state == b.bit_generator.state
        assert np.array_equal(a.standard_normal(3), b.standard_normal(3))
        assert np.array_equal(a.integers(0, 2 ** 63, size=2), b.integers(0, 2 ** 63, size=2))


class TestBits:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_seeds_match_spawn(self, seed):
        for n in (0, 1, 3, 64):
            assert_same_streams(substreams(seed, n), spawned(seed, n))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 200), n=st.sampled_from([0, 1, 3, 64, 600]))
    @example(seed=2 ** 200, n=600)
    def test_streams_match_spawn(self, seed, n):
        assert_same_streams(substreams(seed, n), spawned(seed, n))

    def test_seed_spellings_match(self):
        # int(seed) is taken, as before: a numpy integer or an integral float
        assert_same_streams(substreams(np.int64(5), 4), spawned(5, 4))
        assert_same_streams(substreams(7.0, 4), spawned(7, 4))

    def test_seed_words_are_the_childs_state(self):
        # seed_seq holds the four words PCG64 read, nothing more
        from numpy.random.bit_generator import ISeedSequence
        for rng, child in zip(substreams(3, 5), np.random.SeedSequence(3).spawn(5)):
            assert isinstance(rng.bit_generator.seed_seq, ISeedSequence)
            words = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
            assert np.array_equal(words, child.generate_state(4, np.uint64))
            with pytest.raises(ValueError, match="four uint64"):
                rng.bit_generator.seed_seq.generate_state(8, np.uint32)

    def test_generators_pickle_and_copy_mid_stream(self):
        for rng in substreams(2 ** 64 + 5, 3):
            rng.standard_normal(7)
            restored = [pickle.loads(pickle.dumps(rng)), copy.deepcopy(rng)]
            draws = rng.standard_normal(5)
            for other in restored:
                assert np.array_equal(other.standard_normal(5), draws)


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 11, 2 ** 70 + 3])
    def test_prefix(self, seed):
        longest = [rng.random(4) for rng in substreams(seed, 70)]
        for n in (1, 2, 5, 64, 69):
            assert all(np.array_equal(rng.random(4), draws)
                       for rng, draws in zip(substreams(seed, n), longest))

    def test_drawing_from_one_leaves_the_next(self):
        gens = substreams(9, 3)
        gens[0].standard_normal(1000)
        fresh = substreams(9, 3)
        for a, b in zip(gens[1:], fresh[1:]):
            assert a.bit_generator.state == b.bit_generator.state
            assert np.array_equal(a.standard_normal(8), b.standard_normal(8))

    def test_streams_differ(self):
        firsts = {rng.integers(0, 2 ** 63) for rng in substreams(0, 600)}
        assert len(firsts) == 600


class TestRefusals:
    @pytest.mark.parametrize("n", [-1, -64])
    def test_negative_count_raises_as_spawn_does(self, n):
        with pytest.raises(OverflowError):
            np.random.SeedSequence(0).spawn(n)
        with pytest.raises(OverflowError):
            substreams(0, n)

    def test_count_past_the_spawn_word_raises(self):
        with pytest.raises(OverflowError):
            substreams(0, 2 ** 32)

    def test_non_integer_count_raises_as_spawn_does(self):
        with pytest.raises(TypeError):
            np.random.SeedSequence(0).spawn(2.0)
        with pytest.raises(TypeError):
            substreams(0, 2.0)

    def test_negative_seed_raises_as_seed_sequence_does(self):
        with pytest.raises(ValueError):
            substreams(-1, 3)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random is loaded by the first draw, not by the import: loading it
    # raises a process's peak RSS by about a megabyte.  numpy is the only
    # declared dependency, so no module of scipy, mpmath or hypothesis may
    # load either, installed or not
    src = str(pathlib.Path(nclp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys\n"
            "import nclp, nclp.cli, nclp.suites\n"
            "print('numpy.random' in sys.modules)\n"
            "print(sorted({m.split('.')[0] for m in sys.modules}\n"
            "             & {'scipy', 'mpmath', 'hypothesis'}))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["False", "[]"]
