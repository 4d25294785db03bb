"""MISR — Multiple-Input Signature Register.

Time-compacts a stream of response slices into one signature.  Used as the
LBIST response collector (STUMPS) and optionally behind the spatial
compactor in compressed scan.  Includes the textbook aliasing estimate
(``2**-n`` for an *n*-bit MISR) and an empirical aliasing measurement
helper used by the E6 experiment.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .lfsr import primitive_taps


class MISR:
    """Modular MISR with a primitive feedback polynomial.

    Each :meth:`absorb` XORs an input slice into the register and advances
    it one LFSR step, so the final signature is a linear hash of the whole
    response history.  An X anywhere corrupts the signature irrecoverably —
    callers must mask X's *before* the MISR (see
    :mod:`repro.compression.compactor`).
    """

    def __init__(self, length: int, taps: Optional[Sequence[int]] = None, seed: int = 0):
        self.length = length
        self.taps = tuple(taps) if taps is not None else tuple(primitive_taps(length))
        self.state = seed & ((1 << length) - 1)

    def absorb(self, slice_bits: Sequence[int]) -> None:
        """Fold one response slice (≤ ``length`` known bits) and step."""
        if len(slice_bits) > self.length:
            raise ValueError(
                f"slice of {len(slice_bits)} bits exceeds MISR width {self.length}"
            )
        word = 0
        for position, bit in enumerate(slice_bits):
            if bit not in (0, 1):
                raise ValueError(
                    "X reached the MISR; mask unknowns before signature "
                    "compaction"
                )
            word |= bit << position
        self.state = self._step(self.state ^ word)

    def _step(self, state: int) -> int:
        """One LFSR shift of ``state`` — a linear map over GF(2)."""
        feedback = 0
        for tap in self.taps:
            feedback ^= (state >> (self.length - tap)) & 1
        return ((state >> 1) | (feedback << (self.length - 1))) & (
            (1 << self.length) - 1
        )

    def absorb_columns(self, columns: Sequence[int], count: int) -> int:
        """Fold ``count`` packed responses; returns the signature.

        ``columns[c]`` carries response bit ``c`` of every response (bit
        *p* belongs to response *p*), as the word-parallel simulators
        produce them.  The result equals :meth:`absorb` over each response
        cut into ``length``-bit slices (the last one short), response by
        response.  The register is linear, ``state' = A(state ^ x)``, so
        one response maps ``state`` to ``B·state ^ Σ bit_c·m_c`` with
        ``B = A**slices`` and ``m_c`` column ``c``'s image; eight responses
        fold as one byte-table lookup per column plus one ``B**8``.
        """
        if not columns or count <= 0:
            return self.state
        length = self.length
        n_slices = -(-len(columns) // length)
        step = [self._step(1 << bit) for bit in range(length)]
        # Column c sits at bit c % length of slice c // length, which is
        # followed by the steps of its own and every later slice.
        images: List[int] = [0] * len(columns)
        power = step
        for index in range(n_slices - 1, -1, -1):
            for bit in range(min(length, len(columns) - index * length)):
                images[index * length + bit] = power[bit]
            power = [_apply(step, image) for image in power]
        per_response = _power(step, n_slices)
        per_byte = _power(per_response, 8)
        # Table entry b of a column: Σ_i bit_i(b)·B**(7-i)·m_c, the column's
        # contribution from a byte b of eight consecutive responses.
        n_bytes = count // 8
        mask = (1 << count) - 1
        block_words = [0] * n_bytes
        for column, image in zip(columns, images):
            lanes = [0] * 8
            for lane in range(7, -1, -1):
                lanes[lane] = image
                image = _apply(per_response, image)
            table = [0] * 256
            for byte in range(1, 256):
                low = byte & -byte
                table[byte] = table[byte ^ low] ^ lanes[low.bit_length() - 1]
            packed = (column & mask).to_bytes(n_bytes + 1, "little")
            block_words = [
                word ^ table[byte] for word, byte in zip(block_words, packed)
            ]
        state = self.state
        for word in block_words:
            state = _apply(per_byte, state) ^ word
        # The count % 8 trailing responses one at a time.
        for position in range(n_bytes * 8, count):
            state = _apply(per_response, state)
            for column, image in zip(columns, images):
                if (column >> position) & 1:
                    state ^= image
        self.state = state
        return state

    def absorb_stream(self, slices: Iterable[Sequence[int]]) -> int:
        """Fold a whole response stream; returns the final signature."""
        for slice_bits in slices:
            self.absorb(slice_bits)
        return self.state

    @property
    def signature(self) -> int:
        return self.state


def _apply(matrix: Sequence[int], vector: int) -> int:
    """``matrix · vector`` over GF(2); ``matrix[i]`` is the image of bit i."""
    out = 0
    bit = 0
    while vector:
        if vector & 1:
            out ^= matrix[bit]
        vector >>= 1
        bit += 1
    return out


def _power(matrix: Sequence[int], exponent: int) -> List[int]:
    """``matrix ** exponent`` in the same column form."""
    result = [1 << bit for bit in range(len(matrix))]
    for _ in range(exponent):
        result = [_apply(matrix, image) for image in result]
    return result


def theoretical_aliasing_probability(length: int) -> float:
    """Classic asymptotic aliasing bound for an ``length``-bit MISR."""
    return 2.0 ** -length


def measure_aliasing(
    length: int,
    good_stream: Sequence[Sequence[int]],
    faulty_streams: Sequence[Sequence[Sequence[int]]],
    seed: int = 0,
) -> float:
    """Fraction of distinct faulty streams whose signature aliases good's.

    ``faulty_streams`` should contain responses that *differ* from the good
    stream; aliasing means the MISR hash collides anyway.
    """
    reference = MISR(length, seed=seed).absorb_stream(good_stream)
    if not faulty_streams:
        return 0.0
    aliased = sum(
        1
        for stream in faulty_streams
        if MISR(length, seed=seed).absorb_stream(stream) == reference
    )
    return aliased / len(faulty_streams)
