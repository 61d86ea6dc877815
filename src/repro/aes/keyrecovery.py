"""Differential key recovery from two-round AES ciphertexts.

Section 9's "Key Extraction Algorithm": a two-round ciphertext

    RRC = k2 ^ SR(SB(k1 ^ MC(SR(SB(k0 ^ P)))))

contains only one MixColumns, so changing a single plaintext byte disturbs
exactly four output bytes through a fully traceable path.  Guessing one
byte of ``k0`` predicts the inner difference entering the second SubBytes;
the S-box's differential behaviour then filters the guesses:

* pick a plaintext byte position ``i`` and an affected output byte ``b``;
* for plaintext pairs differing only in byte ``i`` by ``d``, the observed
  output difference must satisfy
  ``RRC[b] ^ RRC'[b] == SB(u) ^ SB(u ^ mc_coef * (SB(P[i]^g) ^ SB(P[i]^d^g)))``
  for the correct guess ``g = k0[i]`` and some byte ``u`` (the stable
  second-round S-box input);
* intersecting the surviving ``(g, u)`` pairs over several differences
  ``d`` leaves the unique ``g``.

The filter never loops over ``u``: a precomputed table holds, for every
S-box input difference ``t`` and output difference ``o``, the set of
``u`` with ``SB(u) ^ SB(u ^ t) == o`` as a 256-bit mask, so a guess
survives exactly when the AND of its masks over all ``d`` is non-zero.

Recovering all 16 bytes of ``k0`` yields the master key directly (for
AES-128, round key 0 *is* the key; the key schedule inversion in
:mod:`repro.aes.keyschedule` generalises the final step).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.aes.core import INV_SHIFT_ROWS_MAP, SBOX, _gf_mul
from repro.utils.rng import DeterministicRng

#: MixColumns coefficient matrix: row r of the output column is
#: sum(M[r][j] * input[j]).
MC_MATRIX = (
    (2, 3, 1, 1),
    (1, 2, 3, 1),
    (1, 1, 2, 3),
    (3, 1, 1, 2),
)

#: Default plaintext-byte differences; any set of distinct non-zero bytes
#: works, more differences give stronger filtering.
DEFAULT_DELTAS = (0x01, 0x4A, 0x93, 0xE7)

#: Every second-round S-box input ``u``, as a mask.
_ALL_U = (1 << 256) - 1

#: ``(solutions, mul)`` once :func:`_tables` has built them.
_Tables = Tuple[List[List[int]], Dict[int, List[int]]]
_TABLES: Optional[_Tables] = None


def affected_output_bytes(plaintext_index: int) -> List[int]:
    """The four RRC byte positions a given plaintext byte influences.

    Plaintext byte ``i = row + 4*column`` moves (through the first
    ShiftRows) into column ``(column - row) mod 4`` of the MixColumns
    input, spreading to that column's four bytes, which the second
    ShiftRows then scatters.
    """
    row = plaintext_index % 4
    column = plaintext_index // 4
    mixed_column = (column - row) % 4
    return [INV_SHIFT_ROWS_MAP[4 * mixed_column + out_row]
            for out_row in range(4)]


def _mc_coefficient(plaintext_index: int, output_row: int) -> int:
    """MixColumns coefficient linking plaintext byte ``i`` to the affected
    column's ``output_row``."""
    row = plaintext_index % 4
    return MC_MATRIX[output_row][row]


def _tables() -> _Tables:
    """The differential solution table and the MixColumns multiply tables.

    ``solutions[t][o]`` is a 256-bit mask with bit ``u`` set for every
    ``u`` where ``SBOX[u] ^ SBOX[u ^ t] == o``; ``mul[c][x]`` is ``c * x``
    in GF(2^8) for the coefficients 1, 2 and 3.  Built on first use
    (about 2 MB) and shared by every later call.
    """
    global _TABLES
    if _TABLES is None:
        bits = [1 << u for u in range(256)]
        solutions = [[0] * 256 for _ in range(256)]
        for t, row in enumerate(solutions):
            for u in range(256):
                row[SBOX[u] ^ SBOX[u ^ t]] |= bits[u]
        mul = {c: [_gf_mul(x, c) for x in range(256)] for c in (1, 2, 3)}
        _TABLES = (solutions, mul)
    return _TABLES


def key_byte_survivors(
    base_byte: int,
    index: int,
    observed: Mapping[int, Sequence[int]],
) -> List[int]:
    """Every guess of ``k0[index]`` consistent with ``observed``.

    ``observed`` maps each plaintext difference ``delta`` (applied to
    ``base_byte``, the plaintext byte at ``index``) to the four output
    differences it caused, in :func:`affected_output_bytes` order.  A
    guess survives when, for some output row, one second-round S-box
    input ``u`` explains every difference at once: the AND of the
    rows' solution masks over all deltas is non-zero.
    """
    solutions, mul = _tables()
    rows = [(mul[_mc_coefficient(index, output_row)],
             [diffs[output_row] for diffs in observed.values()])
            for output_row in range(4)]
    deltas = list(observed)
    survivors = []
    for guess in range(256):
        entering = SBOX[base_byte ^ guess]
        inner = [entering ^ SBOX[base_byte ^ delta ^ guess]
                 for delta in deltas]
        for row_mul, row_observed in rows:
            candidates = _ALL_U
            for difference, observed_difference in zip(inner, row_observed):
                candidates &= solutions[row_mul[difference]][
                    observed_difference]
                if not candidates:
                    break
            if candidates:
                survivors.append(guess)
                break
    return survivors


def recover_key_byte(
    oracle: Callable[[bytes], bytes],
    base_plaintext: bytes,
    index: int,
    base_rrc: Optional[bytes] = None,
    deltas: Sequence[int] = DEFAULT_DELTAS,
) -> int:
    """Recover ``k0[index]`` via the differential filter.

    ``oracle`` maps a plaintext block to its two-round ciphertext.  It is
    queried once per delta, in order; an ambiguous result adds the next
    four unused differences and queries only those.
    """
    if base_rrc is None:
        base_rrc = oracle(base_plaintext)
    outputs = affected_output_bytes(index)

    # Observed output differences per delta, one per output row.
    observed: Dict[int, Tuple[int, ...]] = {}
    pending = list(deltas)
    while True:
        for delta in pending:
            flipped = bytearray(base_plaintext)
            flipped[index] ^= delta
            rrc = oracle(bytes(flipped))
            observed[delta] = tuple(base_rrc[b] ^ rrc[b] for b in outputs)

        survivors = key_byte_survivors(base_plaintext[index], index, observed)
        if len(survivors) == 1:
            return survivors[0]
        if not survivors:
            raise RuntimeError(
                f"no key-byte candidate survived at index {index}")
        # Refine ambiguous survivors with extra differences.
        pending = [d for d in range(1, 256) if d not in observed][:4]
        if not pending:
            raise RuntimeError(
                f"key byte at index {index} is still ambiguous "
                f"({len(survivors)} candidates) with every plaintext "
                f"difference observed")


def recover_key_from_two_round_oracle(
    oracle: Callable[[bytes], bytes],
    rng: Optional[DeterministicRng] = None,
    deltas: Sequence[int] = DEFAULT_DELTAS,
) -> bytes:
    """Recover the full AES-128 key from a two-round-ciphertext oracle."""
    if rng is None:
        rng = DeterministicRng(0xD1FF)
    base_plaintext = rng.bytes(16)
    base_rrc = oracle(base_plaintext)
    key = bytearray(16)
    for index in range(16):
        key[index] = recover_key_byte(oracle, base_plaintext, index,
                                      base_rrc=base_rrc, deltas=deltas)
    return bytes(key)
