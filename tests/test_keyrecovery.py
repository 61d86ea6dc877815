"""Tests for the differential two-round key recovery (pure cryptanalysis).

These use a direct (non-simulated) reduced-round oracle so they exercise
the mathematics independently of the microarchitectural pipeline.
"""

import pytest

from repro.aes.core import SBOX, _gf_mul, reduced_round_ciphertext
from repro.aes.keyrecovery import (
    DEFAULT_DELTAS,
    _mc_coefficient,
    affected_output_bytes,
    key_byte_survivors,
    recover_key_byte,
    recover_key_from_two_round_oracle,
)
from repro.aes.keyschedule import expand_key
from repro.utils.rng import DeterministicRng


def direct_oracle(key):
    round_keys = expand_key(key)

    def oracle(plaintext: bytes) -> bytes:
        return reduced_round_ciphertext(plaintext, round_keys, 1)

    return oracle


class TestAffectedBytes:
    def test_each_plaintext_byte_hits_four_outputs(self):
        for index in range(16):
            affected = affected_output_bytes(index)
            assert len(set(affected)) == 4

    def test_prediction_matches_reality(self):
        """Flipping plaintext byte i changes exactly the predicted four
        output bytes."""
        key = DeterministicRng(1).bytes(16)
        oracle = direct_oracle(key)
        base = DeterministicRng(2).bytes(16)
        base_rrc = oracle(base)
        for index in range(16):
            flipped = bytearray(base)
            flipped[index] ^= 0x35
            rrc = oracle(bytes(flipped))
            changed = {i for i in range(16) if rrc[i] != base_rrc[i]}
            assert changed <= set(affected_output_bytes(index))
            assert len(changed) >= 3  # differentials rarely cancel


class TestKeyByteRecovery:
    def test_recovers_each_byte_position(self):
        key = DeterministicRng(3).bytes(16)
        oracle = direct_oracle(key)
        base = DeterministicRng(4).bytes(16)
        for index in (0, 5, 10, 15):
            assert recover_key_byte(oracle, base, index) == key[index]

    def test_works_for_all_zero_key(self):
        oracle = direct_oracle(bytes(16))
        base = DeterministicRng(5).bytes(16)
        assert recover_key_byte(oracle, base, 7) == 0


def loop_survivors(base_byte, index, observed):
    """The differential filter as a direct search over ``u``: the oracle
    the table-driven :func:`key_byte_survivors` must match exactly."""
    survivors = []
    for guess in range(256):
        inner = {
            delta: SBOX[base_byte ^ guess] ^ SBOX[base_byte ^ delta ^ guess]
            for delta in observed
        }
        for output_row in range(4):
            coefficient = _mc_coefficient(index, output_row)
            targets = [(_gf_mul(inner[delta], coefficient),
                        diffs[output_row])
                       for delta, diffs in observed.items()]
            if any(all(SBOX[u] ^ SBOX[u ^ t] == o for t, o in targets)
                   for u in range(256)):
                survivors.append(guess)
                break
    return survivors


def observe(oracle, base, index, deltas):
    """Per delta, the four affected output differences (survivor input)."""
    base_rrc = oracle(base)
    outputs = affected_output_bytes(index)
    observed = {}
    for delta in deltas:
        flipped = bytearray(base)
        flipped[index] ^= delta
        rrc = oracle(bytes(flipped))
        observed[delta] = tuple(base_rrc[b] ^ rrc[b] for b in outputs)
    return observed


class TestSurvivorTable:
    @pytest.mark.parametrize("case", range(16))
    def test_matches_loop_oracle(self, case):
        """Random key, plaintext, index and 1-8 deltas.  One or two deltas
        leave several survivors; every third case corrupts every row of
        alternate deltas, which leaves none (or, with one delta, many)."""
        rng = DeterministicRng(0x5EED + case)
        key = rng.bytes(16)
        base = rng.bytes(16)
        index = rng.integer(0, 15)
        deltas = []
        while len(deltas) < 1 + case % 8:
            delta = rng.integer(1, 255)
            if delta not in deltas:
                deltas.append(delta)
        observed = observe(direct_oracle(key), base, index, deltas)
        if case % 3 == 2:
            for delta in deltas[::2]:
                observed[delta] = tuple(diff ^ rng.integer(1, 255)
                                        for diff in observed[delta])
        survivors = key_byte_survivors(base[index], index, observed)
        assert survivors == loop_survivors(base[index], index, observed)
        if case % 3 != 2:
            assert key[index] in survivors

    def test_no_deltas_keeps_every_guess(self):
        assert key_byte_survivors(0x3C, 6, {}) == list(range(256))


class CountingOracle:
    """Records every plaintext it is asked for."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.queries = []

    def __call__(self, plaintext):
        self.queries.append(plaintext)
        return self.oracle(plaintext)


def two_guess_oracle(base, index, guesses=(0x11, 0x22)):
    """An oracle whose output rows follow two different key guesses.

    Output row 1 obeys the differential model for ``guesses[1]`` and
    the other rows for ``guesses[0]``, so both guesses survive every
    plaintext difference and recovery can never settle.
    """
    outputs = affected_output_bytes(index)
    u = 0x5C

    def oracle(plaintext):
        delta = plaintext[index] ^ base[index]
        rrc = bytearray(16)
        for output_row, b in enumerate(outputs):
            guess = guesses[output_row == 1]
            inner = SBOX[base[index] ^ guess] ^ SBOX[base[index] ^ delta
                                                     ^ guess]
            t = _gf_mul(inner, _mc_coefficient(index, output_row))
            rrc[b] = SBOX[u] ^ SBOX[u ^ t]
        return bytes(rrc)

    return oracle


class TestRecoverKeyByteFailures:
    def test_no_survivor_raises(self):
        """A constant oracle shows no output difference, which no non-zero
        input difference through the S-box can explain."""
        base = DeterministicRng(9).bytes(16)
        with pytest.raises(RuntimeError, match="no key-byte candidate "
                                               "survived at index 3"):
            recover_key_byte(lambda plaintext: bytes(16), base, 3)

    def test_ambiguity_refines_without_requerying(self):
        """Refinement queries each unused delta once, then names the
        index instead of recursing forever."""
        base = DeterministicRng(13).bytes(16)
        oracle = CountingOracle(two_guess_oracle(base, 5))
        observed = {delta: tuple(oracle(bytes(
            base[:5] + bytes([base[5] ^ delta]) + base[6:]))[b]
            for b in affected_output_bytes(5)) for delta in DEFAULT_DELTAS}
        assert key_byte_survivors(base[5], 5, observed) == [0x11, 0x22]
        oracle.queries.clear()
        with pytest.raises(RuntimeError, match="index 5 is still ambiguous "
                                               r"\(2 candidates\)"):
            recover_key_byte(oracle, base, 5)
        deltas = [plaintext[5] ^ base[5] for plaintext in oracle.queries]
        assert deltas[:5] == [0, *DEFAULT_DELTAS]
        assert sorted(deltas) == list(range(256))

    def test_exact_observations_query_base_then_deltas(self):
        key = DeterministicRng(11).bytes(16)
        oracle = CountingOracle(direct_oracle(key))
        base = DeterministicRng(12).bytes(16)
        assert recover_key_byte(oracle, base, 9) == key[9]
        assert [p[9] ^ base[9] for p in oracle.queries] == \
            [0, *DEFAULT_DELTAS]


class TestFullKeyRecovery:
    def test_recovers_full_key(self):
        key = DeterministicRng(6).bytes(16)
        recovered = recover_key_from_two_round_oracle(
            direct_oracle(key), rng=DeterministicRng(7)
        )
        assert recovered == key

    def test_recovers_structured_key(self):
        key = bytes(range(16))
        recovered = recover_key_from_two_round_oracle(
            direct_oracle(key), rng=DeterministicRng(8)
        )
        assert recovered == key
