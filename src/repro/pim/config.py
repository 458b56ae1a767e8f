"""Array geometry and precision configuration of the SRAM-PIM macro.

The paper's array is ``(320 * 8) x 256`` bits: a 2560-bit word line and
256 rows, sized to hold one 8-bit QVGA image (320x240 pixels, one image
row per SRAM row) or 20480 32-bit coefficients.  The accumulator's carry
control reconfigures the word line into 320x8-bit, 160x16-bit or
80x32-bit SIMD lanes at run time.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PIMConfig", "SUPPORTED_PRECISIONS", "DEFAULT_CONFIG"]

#: Lane widths the carry-control logic supports (paper section 4.1).
SUPPORTED_PRECISIONS = (8, 16, 32, 64)


@dataclass(frozen=True)
class PIMConfig:
    """Geometry of one SRAM-PIM macro.

    Attributes:
        wordline_bits: Bits per row (default 2560 = 320 pixels x 8 bit).
        num_rows: Number of word lines (default 256).
        slice_bits: Width of one accumulator slice; carry propagation is
            cut at multiples of this (default 8).
        num_tmp_registers: Size of the Tmp register bank.  The paper's
            design uses one ("a modest setup"); section 5.4 suggests
            more registers as an efficiency extension, which the
            kernels exploit automatically when available.
        num_banks: Physical row banks the array is partitioned into
            (contiguous row ranges).  Banks are *timing-only*
            structure: they never change what a program computes, but
            the :mod:`repro.sim` timing model arbitrates concurrent
            DMA/compute access per bank, so two operations touching
            disjoint banks may overlap while same-bank access
            serializes.  ``0`` (the default) means auto:
            ``min(8, num_rows)``, so tiny test geometries stay valid.
    """

    wordline_bits: int = 2560
    num_rows: int = 256
    slice_bits: int = 8
    num_tmp_registers: int = 1
    num_banks: int = 0

    def __post_init__(self) -> None:
        if self.wordline_bits % self.slice_bits:
            raise ValueError("word line must be a whole number of slices")
        if self.num_rows <= 0 or self.wordline_bits <= 0:
            raise ValueError("geometry must be positive")
        if self.num_tmp_registers < 1:
            raise ValueError("need at least one Tmp register")
        if self.num_banks == 0:
            object.__setattr__(self, "num_banks", min(8, self.num_rows))
        if not 1 <= self.num_banks <= self.num_rows:
            raise ValueError(
                f"num_banks {self.num_banks} must be in "
                f"[1, {self.num_rows}]")

    def lanes(self, precision: int) -> int:
        """SIMD lanes available at the given lane width."""
        self.validate_precision(precision)
        return self.wordline_bits // precision

    def validate_precision(self, precision: int) -> None:
        """Raise if ``precision`` is not a supported lane width."""
        if precision not in SUPPORTED_PRECISIONS:
            raise ValueError(
                f"precision {precision} not in {SUPPORTED_PRECISIONS}")
        if self.wordline_bits % precision:
            raise ValueError(
                f"word line of {self.wordline_bits} bits cannot be split "
                f"into {precision}-bit lanes")

    @property
    def row_bytes(self) -> int:
        """Bytes per row (word line is byte-aligned by construction)."""
        return self.wordline_bits // 8

    @property
    def bank_rows(self) -> int:
        """Rows per bank (last bank may be short when not divisible)."""
        return -(-self.num_rows // self.num_banks)

    def bank_of(self, row: int) -> int:
        """Bank index holding ``row``."""
        if not 0 <= row < self.num_rows:
            raise IndexError(
                f"row {row} out of range [0, {self.num_rows})")
        return row // self.bank_rows

    def banks_of_rows(self, rows) -> frozenset:
        """The set of bank indices a row collection touches."""
        return frozenset(self.bank_of(int(r)) for r in rows)

    def digest(self) -> str:
        """Stable short fingerprint of the geometry.

        Programs recorded for one geometry are only replayable on
        devices with the same geometry; caches key on this digest
        (plus kernel, shape and precision) so a config change can
        never resurrect a stale program.  Only execution-visible
        geometry enters the digest -- ``num_banks`` is timing-only
        structure, so two configs differing in banking alone share
        programs (and persistent store entries) by design.

        Every ``run_program`` compares it, so it is computed once per
        config (which is frozen) and kept.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            import hashlib
            blob = (f"{self.wordline_bits}:{self.num_rows}:"
                    f"{self.slice_bits}:{self.num_tmp_registers}")
            digest = hashlib.sha1(blob.encode()).hexdigest()[:12]
            object.__setattr__(self, "_digest", digest)
        return digest

    @property
    def capacity_bytes(self) -> int:
        """Total array capacity in bytes."""
        return self.row_bytes * self.num_rows


#: The paper's configuration.
DEFAULT_CONFIG = PIMConfig()
