"""Characters of the skew polynomial algebra and the analytic-disc catalog.

Every point x carries the evaluation character p -> E_0(p)(x).  Over a fixed
point of the map there is in addition a full disc of characters
p -> sum_n E_n(p)(x) z^n, one for each z in the closed unit disc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynsys import ConjugacyWitness, FiniteDynSys, fixed_points
from .skewpoly import SkewPoly, SystemMismatchError

TOL = 1e-9


class CharacterError(ValueError):
    pass


@dataclass(frozen=True)
class Character:
    """theta_{x,z}: evaluation of the power series at point x, parameter z
    in the closed unit disc."""

    system: FiniteDynSys
    point: int
    disc_param: complex = 0.0

    def __post_init__(self):
        if not 0 <= self.point < self.system.n:
            raise CharacterError("point out of range")
        z = complex(self.disc_param)
        if self.system.map[self.point] != self.point and z != 0:
            raise CharacterError(
                "nonzero disc parameter is only allowed over a fixed point"
            )
        if not abs(z) <= 1 + TOL:  # NaN fails this too
            raise CharacterError("disc parameter outside the closed unit disc")


def eval_character(ch: Character, p: SkewPoly) -> complex:
    """theta_{x,z}(p) = sum_n E_n(p)(x) z^n."""
    if p.system != ch.system:
        raise SystemMismatchError("polynomial lives over a different system")
    x = ch.point
    z = complex(ch.disc_param)
    total = 0.0 + 0.0j
    zn = 1.0 + 0.0j
    for c in p.coeffs:
        total += c[x] * zn
        zn *= z
    return total


@dataclass(frozen=True)
class CatalogEntry:
    x: int
    kind: str          # "disc" or "point"
    r: float = 0.0


@dataclass(frozen=True)
class CharacterCatalog:
    system: FiniteDynSys
    entries: tuple

    def to_json(self):
        pts = []
        for e in self.entries:
            if e.kind == "disc":
                pts.append({"x": e.x, "kind": "disc", "r": e.r})
            else:
                pts.append({"x": e.x, "kind": "point"})
        return {"points": pts}


def build_catalog(sys: FiniteDynSys, r: float = 1.0) -> CharacterCatalog:
    """One disc of radius r per fixed point, a single character elsewhere."""
    if not (math.isfinite(r) and r > 0):
        raise CharacterError("disc radius must be positive and finite")
    fixed = fixed_points(sys)
    entries = tuple(
        CatalogEntry(i, "disc", r) if i in fixed else CatalogEntry(i, "point")
        for i in range(sys.n)
    )
    return CharacterCatalog(sys, entries)


def catalog_equal(a: CharacterCatalog, b: CharacterCatalog, w: ConjugacyWitness) -> bool:
    """Does the witness carry discs to discs and points to points?"""
    if w.source != a.system or w.target != b.system:
        return False
    sigma = w.bijection
    for e in a.entries:
        f = b.entries[sigma[e.x]]
        if e.kind != f.kind or (e.kind == "disc" and abs(e.r - f.r) > TOL):
            return False
    return True
