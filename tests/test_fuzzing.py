"""The seeded generators draw the same instances from the same seed.

The acceptance criteria and the benchmark corpora are built from these
draws, so a change to the order or the number of random calls a
generator makes shows up here as a changed digest.
"""

import hashlib
import random

import pytest

from pqesat.circuits import TransitionSystem, format_netlist
from pqesat.cnf import format_dimacs
from pqesat.fuzzing import (
    distinct_mutant,
    random_interp_split,
    random_netlist,
    random_transition_system,
    reencode_netlist,
)


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _netlists(seed: int):
    rng = random.Random(seed)
    for i in range(30):
        yield format_netlist(random_netlist(rng, 2 + i % 3, 1 + i % 7))


def _rewrites(seed: int):
    rng = random.Random(seed)
    for i in range(30):
        nl = random_netlist(rng, 4, rng.randint(3, 7))
        yield format_netlist(reencode_netlist(rng, nl))
        # No tries at all takes the output-inversion fallback.
        yield format_netlist(distinct_mutant(rng, nl, tries=25 if i % 3 else 0))


def _transition_systems(seed: int):
    rng = random.Random(seed)
    for i in range(30):
        ts = random_transition_system(rng, 2 + i % 3, stutter=bool(i % 2))
        yield format_netlist(ts.trans) + format_dimacs(ts.init)


def _interp_splits(seed: int):
    rng = random.Random(seed)
    for _ in range(40):
        inst = random_interp_split(rng)
        if inst is None:
            yield "none"
        else:
            yield format_dimacs(inst.a) + format_dimacs(inst.b) + str(
                sorted(inst.shared)
            )


def test_random_netlist_draws_are_pinned():
    assert _digest(_netlists(11)) == (
        "fdd59e124bc5ee152744a02e55052d3677f282ab02f95a0161c46dc07fcfe2fe"
    )


def test_reencode_and_mutant_draws_are_pinned():
    assert _digest(_rewrites(12)) == (
        "03b112716e967dc6b94b8e1479698f5f678ede4caf42b3cda4e61364ee142e9b"
    )


def test_random_transition_system_draws_are_pinned():
    assert _digest(_transition_systems(13)) == (
        "fa2b9352ec683574431ab7e918ae9eb76497bca418eadc761614991c783b6389"
    )


def test_random_interp_split_draws_are_pinned():
    assert _digest(_interp_splits(14)) == (
        "68e2892950560b35192bd1d8697d43e069f5ed07358fa8c3f3aabcf1e534a633"
    )


def test_one_bit_transition_systems_are_drawn():
    # With one state bit and no free input, the first gate has a single
    # signal to read; an XOR drawn there has no second operand.
    ts = random_transition_system(random.Random(6), bits=1)
    assert isinstance(ts, TransitionSystem)
    for seed in range(50):
        for bits in (1, 2, 3):
            ts = random_transition_system(random.Random(seed), bits)
            assert isinstance(ts, TransitionSystem)
            assert ts.state_bits == bits


def test_random_netlist_needs_an_output():
    with pytest.raises(ValueError):
        random_netlist(random.Random(1), 3, 4, n_outputs=0)
