"""Diagnostics records as the rows of one float64 table.

A record is the moments, conserved totals, entropy H, anisotropies and
negativity flag of one state: 19, 28 or 39 numbers in dims 1, 2 and 3,
one row whose columns are the diagnostics CSV's, in the order `_layout`
states.  `DiagRow.pack` reduces a state's moment sets into a fresh row
(`solver.diagnose` returns it), `Diagnostics` holds a run's rows in one
table sized once, and reads them back as row views (`DiagRow`) and as
column series.  The table is the CSV: `cli` writes it line by line and
plots its columns.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import MomentSet, _monomials, _tri_index


_AXES = "xyz"


def _layout(dim: int) -> dict[str, list[str]]:
    """The columns of the diagnostics table, and so of its CSV, by the
    record field each run of them holds (a moment set's as n1, u1, T1,
    P1 and q1, P's upper triangle in `_tri_index` order), in table
    order: the one statement of the layout."""
    axes = _AXES[:dim]
    tri = [_AXES[i] + _AXES[j] for i, j in _tri_index(dim)]
    layout = {"t": ["t"]}
    for k in "12":
        for field, suffixes in (("n", [""]), ("u", axes), ("T", [""]),
                                ("P", tri), ("q", axes)):
            layout[field + k] = [field + k + s for s in suffixes]
    layout.update(mass1=["total_mass1"], mass2=["total_mass2"],
                  momentum=["total_momentum_" + a for a in axes],
                  energy=["total_energy"], h=["H"], aniso1=["aniso1"],
                  aniso2=["aniso2"], negative=["negativity_flag"])
    return layout


def diagnostics_header(dim: int) -> list[str]:
    """The column names of the diagnostics table and its CSV."""
    return [name for names in _layout(dim).values() for name in names]


@functools.lru_cache(maxsize=None)
def _columns(dim: int) -> dict[str, slice]:
    """The run of table columns of each record field."""
    columns, start = {}, 0
    for field, names in _layout(dim).items():
        columns[field] = slice(start, start + len(names))
        start += len(names)
    return columns


def _width(dim: int) -> int:
    """The number of table columns: the end of the last field's run."""
    return _columns(dim)["negative"].stop


def _scalar_field(field: str) -> property:
    """A `DiagRow` attribute: the field's one column, as a float."""
    return property(lambda self: float(self._get(field)[0]))


class DiagRow:
    """One diagnostics record as a row of the table's layout: the
    scalars read as floats, `momentum` and the moment sets' vectors as
    copies, and each moment set built on access, its `P` filled from
    the upper triangle (so bitwise symmetric, as reduced), or None for
    a species whose mass column is 0 (absent)."""

    __slots__ = ("_row", "_at")

    def __init__(self, row: np.ndarray, dim: int):
        self._row, self._at = row, _columns(dim)

    @classmethod
    def pack(cls, dim: int, t: float,
             species: list[tuple[float, MomentSet | None]], h: float,
             negative: bool) -> DiagRow:
        """The record of one state in a fresh row, from each species'
        (mass, moment set of its cell average, or None if absent), the
        entropy `h` and the negativity flag.  The moment sets give the
        totals: momentum m n u and energy m n |u|^2 / 2 + tr(P) / 2 per
        species, summed from 0 in species order, and the anisotropy
        |P - n T I|.  An absent species' columns hold 0, and the flag 0
        or 1."""
        row, at = np.zeros(_width(dim)), _columns(dim)
        i, j = _monomials(dim)[:2]
        for k, (m, mom) in zip("12", species):
            if mom is None:
                continue
            row[at["n" + k]], row[at["u" + k]] = mom.n, mom.u
            row[at["T" + k]], row[at["q" + k]] = mom.T, mom.Qtilde
            row[at["P" + k]], row[at["mass" + k]] = mom.P[i, j], mom.n
            row[at["aniso" + k]] = np.linalg.norm(
                mom.P - mom.n * mom.T * np.eye(dim))
            row[at["momentum"]] += m * mom.n * mom.u
            row[at["energy"]] += (0.5 * m * mom.n * float(mom.u @ mom.u)
                                  + 0.5 * float(np.trace(mom.P)))
        row[at["t"]], row[at["h"]], row[at["negative"]] = t, h, negative
        return cls(row, dim)

    def _get(self, field: str) -> np.ndarray:
        return self._row[self._at[field]]

    t, h, energy = map(_scalar_field, ("t", "h", "energy"))
    mass1, mass2, aniso1, aniso2 = map(_scalar_field, (
        "mass1", "mass2", "aniso1", "aniso2"))
    momentum = property(lambda self: self._get("momentum").copy())
    negative = property(lambda self: bool(self._get("negative")[0]))
    mom1 = property(lambda self: self._moments("1"))
    mom2 = property(lambda self: self._moments("2"))

    def _moments(self, k: str) -> MomentSet | None:
        if self._get("mass" + k)[0] == 0.0:
            return None
        u = self._get("u" + k).copy()
        P = np.empty((len(u), len(u)))
        i, j = _monomials(len(u))[:2]
        P[i, j] = P[j, i] = self._get("P" + k)
        return MomentSet(n=float(self._get("n" + k)[0]), u=u,
                         T=float(self._get("T" + k)[0]), P=P,
                         Qtilde=self._get("q" + k).copy())


class Diagnostics:
    """Time series of diagnostics records, each one row of a float64
    table whose columns are those of the diagnostics CSV
    (`diagnostics_header`).  The table is sized once, for the `rows`
    records a run may keep (`run_scenario` sizes it for its scenario's
    count), and `append` copies a `DiagRow` into its next row.
    `records` reads the rows back as `DiagRow`s, and the series read the
    columns, each value as the record's own arithmetic gives it."""

    def __init__(self, dim: int, rows: int):
        self.dim = dim
        self._table = np.empty((rows, _width(dim)))
        self._count = 0

    def append(self, row: DiagRow):
        self._table[self._count] = row._row
        self._count += 1

    @property
    def table(self) -> np.ndarray:
        """The records' rows, a read-only view."""
        table = self._table[:self._count]
        table.flags.writeable = False
        return table

    @property
    def records(self) -> list[DiagRow]:
        return [DiagRow(row, self.dim) for row in self.table]

    def _column(self, field: str) -> np.ndarray:
        """The field's one column, a read-only view."""
        return self.table[:, _columns(self.dim)[field].start]

    @property
    def times(self) -> np.ndarray:
        return self._column("t").copy()

    def _gap(self, between) -> np.ndarray:
        """`between` where both species are present, and nan elsewhere."""
        present = self._column("mass1") != 0.0
        present &= self._column("mass2") != 0.0
        return np.where(present, between, np.nan)

    def velocity_gap(self) -> np.ndarray:
        """|u1 - u2| per record (nan where a species is degenerate)."""
        u1, u2 = (self.table[:, _columns(self.dim)[f]] for f in ("u1", "u2"))
        # each record's norm alone, as of its own vector: a norm along an
        # axis may round differently
        return self._gap([float(np.linalg.norm(du)) for du in u1 - u2])

    def temperature_gap(self) -> np.ndarray:
        """|T1 - T2| per record (nan where a species is degenerate)."""
        return self._gap(np.abs(self._column("T1") - self._column("T2")))

    def anisotropy(self, species: int = 1) -> np.ndarray:
        """|P - n T I| of species 1 or 2 per record."""
        if species not in (1, 2):
            raise ValueError(f"species must be 1 or 2 (got {species})")
        return self._column(f"aniso{species}").copy()
