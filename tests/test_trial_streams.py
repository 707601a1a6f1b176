"""Law-check trials: each draws from numpy's own stream for (seed, trial), and the
draws make numpy's bytes; what seeding may cost in imports and in memory."""

import subprocess
import sys
import tracemalloc
from functools import partial
from itertools import product

import numpy as np
import pytest

from kronquot import Matrix, axioms
from oracles import random_complex_in_two_draws, trial_rng

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**96, 2**200 + 3)
BLOCK = axioms._SEED_BLOCK


@pytest.mark.parametrize("seed", SEEDS)
def test_block_seed_words_are_numpys(seed):
    # first and last trials of blocks, on both sides of a block edge and of 2**32,
    # where a trial gains a second entropy word
    for start, stop, trials in ((0, BLOCK, (0, 1, BLOCK - 1)), (BLOCK, BLOCK + 2, (BLOCK,)),
                                (2**32 - BLOCK, 2**32, (2**32 - BLOCK, 2**32 - 1)),
                                (2**32, 2**32 + 3, (2**32, 2**32 + 2))):
        words = axioms._seed_words(seed, start, stop)
        assert words.shape == (stop - start, 4) and words.dtype == np.uint64
        for t in trials:
            want = np.random.SeedSequence(entropy=(seed, t)).generate_state(4, np.uint64)
            assert words[t - start].tobytes() == want.tobytes(), t


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_generators_are_numpys_across_a_block_edge(seed):
    for t, rng in enumerate(axioms._trial_rngs(seed, BLOCK + 2)):
        if t in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1):
            want = trial_rng(seed, t)
            assert rng.bit_generator.state == want.bit_generator.state, t
            assert (rng.bit_generator.random_raw(3).tobytes()
                    == want.bit_generator.random_raw(3).tobytes()), t


def _bytes(inputs: dict) -> dict:
    return {key: (value.shape, value.to_array().tobytes()) if isinstance(value, Matrix)
            else repr(value) for key, value in inputs.items()}


@pytest.mark.parametrize("law", axioms._CHECKED_LAWS)
def test_every_draw_makes_the_inputs_of_numpys_streams(law, monkeypatch):
    """Each law's draw, under every flag and max_dim, gives the bytes that numpy's own
    trial seeding and the draw of the real and imaginary parts in two calls give."""
    draw = axioms._LAWS[law].draw
    shared = axioms._basis_inputs(axioms._default_basis("frobenius"))
    trials = 6  # sparse draws zero part of the divisor at trials 0 and 3
    for square, sparse, restricted, trace_rule in product((False, True), repeat=4):
        for max_dim in range(1, 7):
            params = dict(square=square, sparse=sparse, max_dim=max_dim,
                          restricted=restricted, trace_rule=trace_rule, shared=shared)
            new = [_bytes(draw(rng, t, **params))
                   for t, rng in enumerate(axioms._trial_rngs(42, trials))]
            with monkeypatch.context() as patch:
                patch.setattr(axioms, "_random_complex", random_complex_in_two_draws)
                old = [_bytes(draw(trial_rng(42, t), t, **params)) for t in range(trials)]
            assert new == old, (square, sparse, restricted, trace_rule, max_dim)


@pytest.mark.parametrize("rows, cols", list(product(range(1, 7), repeat=2)))
def test_one_call_draw_is_the_two_call_sum(rows, cols):
    for t in range(4):
        got = axioms._random_complex(trial_rng(5, t), rows, cols)
        assert got.flags.c_contiguous and got.shape == (rows, cols)
        assert got.tobytes() == random_complex_in_two_draws(trial_rng(5, t), rows, cols).tobytes()


def test_importing_the_package_leaves_numpy_random_unimported():
    # numpy before 2.0 imports numpy.random itself; the package must add no import of it
    code = ("import sys, numpy\n"
            "before = 'numpy.random' in sys.modules\n"
            "import kronquot, kronquot.cli\n"
            "imported = 'numpy.random' in sys.modules\n"
            "kronquot.check_axiom('Q1', 'frobenius', 1, 0)\n"
            "print(before, imported, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, imported, after_a_check = proc.stdout.split()
    assert imported == before
    assert after_a_check == "True"


def test_the_first_trial_of_a_huge_check_allocates_one_block():
    class FirstTrial(Exception):
        pass

    def stop(inputs):
        raise FirstTrial

    draw = partial(axioms._LAWS["Q1"].draw, square=False, sparse=False, max_dim=4,
                   restricted=False, shared={})
    with pytest.raises(FirstTrial):  # first use: numpy.random is imported untraced
        axioms._run_trials(draw, stop, 1, 0)
    tracemalloc.start()
    try:
        with pytest.raises(FirstTrial):
            axioms._run_trials(draw, stop, 10**12, 42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a block's uint32 arithmetic holds some sixty words per trial at its peak
    assert peak < 1024 * BLOCK
