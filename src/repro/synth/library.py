"""Technology library model and the built-in Nangate-45nm-class library.

Cells follow a linear (NLDM-inspired) delay model::

    delay_ns = intrinsic_ns + drive_res_kohm * load_ff / 1000

which keeps kΩ x fF = ps arithmetic exact.  Areas, capacitances and
leakage values are scaled to the published Nangate 45nm open cell library
so that design-level area totals land in the same regime as the paper's
Table IV.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["LibCell", "TechLibrary", "nangate45"]


@dataclass(frozen=True)
class LibCell:
    """One library cell.

    Attributes:
        name: cell name, e.g. ``NAND2_X1``.
        function: generic gate implemented (``AND2``, ``DFF``, ...).
        drive: drive-strength index (1, 2, 4, ...).
        area: cell area in square microns.
        input_cap: capacitance of each input pin, fF.
        drive_res: output drive resistance, kOhm.
        intrinsic: intrinsic delay, ns.
        leakage: leakage power, nW.
        setup: setup time (sequential cells only), ns.
        clk_to_q: clock-to-output delay (sequential cells only), ns.
    """

    name: str
    function: str
    drive: int
    area: float
    input_cap: float
    drive_res: float
    intrinsic: float
    leakage: float
    setup: float = 0.0
    clk_to_q: float = 0.0

    @property
    def is_sequential(self) -> bool:
        return self.function == "DFF"

    def delay(self, load_ff: float) -> float:
        """Propagation delay in ns for an output load in fF."""
        return self.intrinsic + self.drive_res * load_ff / 1000.0


class TechLibrary:
    """A collection of cells indexed by name and by (function, drive)."""

    def __init__(self, name: str, cells: list[LibCell]) -> None:
        self.name = name
        self._by_name: dict[str, LibCell] = {}
        self._by_function: dict[str, list[LibCell]] = {}
        self._digest: str | None = None
        for cell in cells:
            self.add_cell(cell)

    def add_cell(self, cell: LibCell) -> None:
        if cell.name in self._by_name:
            raise ValueError(f"duplicate cell {cell.name!r}")
        self._digest = None
        self._by_name[cell.name] = cell
        siblings = self._by_function.setdefault(cell.function, [])
        siblings.append(cell)
        siblings.sort(key=lambda c: c.drive)

    def digest(self) -> str:
        """SHA-256 over the library name and every field of every cell.

        A cell's dataclass ``repr`` names every field, with floats written
        exactly, so two libraries share a digest only if they hold the
        same cells with the same values in the same order.  Result caches
        key on it.  Memoized; :meth:`add_cell` resets it.
        """
        if self._digest is None:
            h = hashlib.sha256(self.name.encode())
            for cell in self._by_name.values():
                h.update(repr(cell).encode())
            self._digest = h.hexdigest()
        return self._digest

    def cell(self, name: str) -> LibCell:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no cell {name!r} in library {self.name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def cells(self) -> list[LibCell]:
        return list(self._by_name.values())

    def variants(self, function: str) -> list[LibCell]:
        """Drive-strength variants of ``function``, weakest first."""
        return list(self._by_function.get(function, []))

    def weakest(self, function: str) -> LibCell:
        variants = self.variants(function)
        if not variants:
            raise KeyError(f"library {self.name} has no cell for {function!r}")
        return variants[0]

    def next_size_up(self, cell: LibCell) -> LibCell | None:
        """The next stronger variant of the same function, if any."""
        variants = self.variants(cell.function)
        for candidate in variants:
            if candidate.drive > cell.drive:
                return candidate
        return None

    def functions(self) -> set[str]:
        return set(self._by_function)


def _scaled(
    function: str,
    base_name: str,
    area: float,
    cap: float,
    res: float,
    intrinsic: float,
    leak: float,
    drives: tuple[int, ...] = (1, 2, 4),
    setup: float = 0.0,
    clk_to_q: float = 0.0,
) -> list[LibCell]:
    """Generate drive-strength variants with standard scaling rules."""
    cells = []
    for drive in drives:
        cells.append(
            LibCell(
                name=f"{base_name}_X{drive}",
                function=function,
                drive=drive,
                area=round(area * (1.0 + 0.55 * (drive - 1)), 3),
                input_cap=round(cap * (1.0 + 0.45 * (drive - 1)), 3),
                drive_res=round(res / drive, 3),
                intrinsic=round(intrinsic * (1.0 + 0.08 * (drive - 1)), 4),
                leakage=round(leak * drive, 2),
                setup=setup,
                clk_to_q=clk_to_q,
            )
        )
    return cells


def nangate45() -> TechLibrary:
    """The built-in 45nm-class library (Nangate FreePDK45 flavoured).

    Areas track the published NangateOpenCellLibrary values; delays follow
    the kΩ x fF linear model with an FO4 around 35 ps at X1.
    """
    cells: list[LibCell] = []
    cells += _scaled("BUF", "BUF", area=0.798, cap=0.9, res=4.2, intrinsic=0.022, leak=8.5)
    cells += _scaled("NOT", "INV", area=0.532, cap=1.0, res=4.0, intrinsic=0.012, leak=6.0)
    cells += _scaled("AND2", "AND2", area=1.064, cap=1.1, res=4.6, intrinsic=0.032, leak=12.1)
    cells += _scaled("OR2", "OR2", area=1.064, cap=1.1, res=4.8, intrinsic=0.034, leak=12.4)
    cells += _scaled("NAND2", "NAND2", area=0.798, cap=1.0, res=4.1, intrinsic=0.018, leak=10.2)
    cells += _scaled("NOR2", "NOR2", area=0.798, cap=1.0, res=4.5, intrinsic=0.020, leak=10.5)
    cells += _scaled("XOR2", "XOR2", area=1.596, cap=1.5, res=5.2, intrinsic=0.046, leak=18.9)
    cells += _scaled("XNOR2", "XNOR2", area=1.596, cap=1.5, res=5.2, intrinsic=0.048, leak=19.1)
    cells += _scaled("MUX2", "MUX2", area=1.862, cap=1.3, res=5.0, intrinsic=0.042, leak=17.6)
    cells += _scaled("AOI21", "AOI21", area=1.064, cap=1.1, res=4.9, intrinsic=0.030, leak=11.8)
    cells += _scaled("OAI21", "OAI21", area=1.064, cap=1.1, res=4.9, intrinsic=0.031, leak=11.9)
    cells += _scaled(
        "DFF",
        "DFF",
        area=4.522,
        cap=1.2,
        res=4.4,
        intrinsic=0.0,
        leak=48.0,
        drives=(1, 2),
        setup=0.045,
        clk_to_q=0.085,
    )
    return TechLibrary("nangate45", cells)
