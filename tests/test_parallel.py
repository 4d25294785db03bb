"""Bit-parallel simulation must agree with the event simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import benchmarks, generators
from repro.sim.logicsim import LogicSimulator
from repro.sim.parallel import WORD_WIDTH, ParallelSimulator, pack_patterns, unpack_word


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        patterns = [[1, 0], [0, 1], [1, 1]]
        word = pack_patterns(patterns, 0)
        assert unpack_word(word, 3) == [1, 0, 1]
        word = pack_patterns(patterns, 1)
        assert unpack_word(word, 3) == [0, 1, 1]


class TestAgreementWithEventSim:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_c17_random_batches(self, seed):
        import random

        rng = random.Random(seed)
        netlist = benchmarks.c17()
        parallel = ParallelSimulator(netlist)
        logic = LogicSimulator(netlist)
        patterns = [[rng.randint(0, 1) for _ in range(5)] for _ in range(16)]
        expected = [logic.response(p) for p in patterns]
        assert parallel.responses(patterns) == expected

    def test_sequential_view_agreement(self):
        import random

        rng = random.Random(3)
        netlist = generators.random_sequential(6, 60, 8, seed=1)
        parallel = ParallelSimulator(netlist)
        logic = LogicSimulator(netlist)
        width = parallel.view.num_inputs
        patterns = [[rng.randint(0, 1) for _ in range(width)] for _ in range(70)]
        expected = [logic.response(p) for p in patterns]
        assert parallel.responses(patterns) == expected

    def test_batches_larger_than_word(self):
        netlist = benchmarks.c17()
        parallel = ParallelSimulator(netlist)
        patterns = [[(i >> b) & 1 for b in range(5)] for i in range(WORD_WIDTH + 7)]
        responses = parallel.responses(patterns)
        assert len(responses) == WORD_WIDTH + 7


class TestValidation:
    def test_too_many_patterns_per_pass(self):
        netlist = benchmarks.c17()
        parallel = ParallelSimulator(netlist)
        with pytest.raises(ValueError):
            parallel.evaluate_words([0] * 5, WORD_WIDTH + 1)

    def test_wrong_word_count(self):
        netlist = benchmarks.c17()
        parallel = ParallelSimulator(netlist)
        with pytest.raises(ValueError):
            parallel.evaluate_words([0, 0], 4)


class TestMaskedWordsInvariant:
    """The compiled non-inverting ops skip masking, so every word must
    already hold no bits at positions ``>= n_patterns``."""

    @staticmethod
    def _circuit_and_patterns(seed, n_patterns):
        import random

        from repro.atpg.random_gen import random_patterns

        rng = random.Random(seed)
        netlist = generators.random_circuit(
            rng.randint(4, 8), rng.randint(15, 45), seed=seed
        )
        patterns = random_patterns(len(netlist.inputs), n_patterns, seed=seed)
        return netlist, patterns

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), n_patterns=st.integers(1, 130))
    def test_invariant_after_every_gate_op(self, seed, n_patterns):
        """Each gate word is written by exactly one compiled op, so a
        fully-masked word list proves the invariant op by op."""
        netlist, patterns = self._circuit_and_patterns(seed, n_patterns)
        parallel = ParallelSimulator(netlist, word_width=130, cache=None)
        words = parallel.evaluate_words(parallel.pack_block(patterns), n_patterns)
        assert all(word >> n_patterns == 0 for word in words)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), n_patterns=st.integers(1, 130))
    def test_evaluate_words_masks_dirty_inputs(self, seed, n_patterns):
        """Garbage bits above ``n_patterns`` in the input words must not
        leak into any gate word."""
        netlist, patterns = self._circuit_and_patterns(seed, n_patterns)
        parallel = ParallelSimulator(netlist, word_width=130, cache=None)
        clean = parallel.evaluate_words(parallel.pack_block(patterns), n_patterns)
        garbage = ((1 << 140) - 1) ^ ((1 << n_patterns) - 1)
        dirty = [word | garbage for word in parallel.pack_block(patterns)]
        assert parallel.evaluate_words(dirty, n_patterns) == clean
