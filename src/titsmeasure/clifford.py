"""Structure-constant oracle for even Clifford algebra Brauer classes.

Builds the 2^n-dimensional Clifford algebra of a diagonal form on the subset
basis e_S, restricts to the even part, splits off a simple component when the
dimension is even (via the central idempotent cut out by the volume element),
and identifies quaternion classes by probing for anticommuting square roots
of scalars.  Everything runs over exact rationals, and every linear-algebra
step (span bases, linear solves, kernels) is one exact Gauss-Jordan
elimination, ``_row_reduce``.

This is deliberately independent of the closed-form invariant in
``quadforms``: no n mod 8 case table appears here.  Practical up to n = 6,
which covers every form dimension the quadric family needs pinned.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .brauer import RationalClass
from .quadforms import QuadraticForm, signed_discriminant
from .rationals import quaternion_class

Vector = tuple[Fraction, ...]


def _tau(s: int, t: int) -> int:
    """Number of index pairs (x in s, y in t) with x > y; the reordering sign."""
    count = 0
    x = s
    while x:
        i = (x & -x).bit_length() - 1
        count += bin(t & ((1 << i) - 1)).count("1")
        x &= x - 1
    return count


class CliffordAlgebra:
    """Clifford algebra of <a_1,...,a_n> with basis e_S for S a bitmask."""

    def __init__(self, entries: Sequence[Fraction]):
        self.entries = tuple(Fraction(a) for a in entries)
        self.n = len(self.entries)
        self.size = 1 << self.n

    def basis_product(self, s: int, t: int) -> tuple[Fraction, int]:
        coef = Fraction(-1) ** _tau(s, t)
        common = s & t
        while common:
            i = (common & -common).bit_length() - 1
            coef *= self.entries[i]
            common &= common - 1
        return coef, s ^ t

    def zero(self) -> Vector:
        return (Fraction(0),) * self.size

    def basis_vector(self, mask: int) -> Vector:
        return tuple(
            Fraction(1) if i == mask else Fraction(0) for i in range(self.size)
        )

    def one(self) -> Vector:
        return self.basis_vector(0)

    def mul(self, x: Vector, y: Vector) -> Vector:
        out = [Fraction(0)] * self.size
        for s, xs in enumerate(x):
            if not xs:
                continue
            for t, yt in enumerate(y):
                if not yt:
                    continue
                coef, mask = self.basis_product(s, t)
                out[mask] += xs * yt * coef
        return tuple(out)

    def even_masks(self) -> list[int]:
        return [m for m in range(self.size) if bin(m).count("1") % 2 == 0]


def _add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))

def _scale(x: Vector, c: Fraction) -> Vector:
    return tuple(c * a for a in x)

def _sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def _row_reduce(
    rows: Sequence[Sequence[Fraction]], width: int
) -> tuple[list[list[Fraction]], list[int]]:
    """Exact Gauss-Jordan elimination on the first ``width`` columns.

    Returns every row, reduced, and the pivot columns in order: row i has a 1
    in column pivots[i] and the other rows a 0 there, and the rows past the
    pivots are zero in the first ``width`` columns.  Columns beyond ``width``
    (an augmented right-hand side) are carried along but never pivoted on.
    Zero entries are skipped, since the Clifford bases are sparse.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        top = mat[r] = [a * inv if a else a for a in mat[r]]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                mat[i] = [a - f * b if b else a for a, b in zip(row, top)]
        pivots.append(c)
    return mat, pivots


def _echelon(vectors: Sequence[Vector], width: int) -> list[Vector]:
    """The reduced row echelon basis of the span of ``vectors``."""
    mat, pivots = _row_reduce(vectors, width)
    return [tuple(row) for row in mat[: len(pivots)]]


def _solve_exact(basis: Sequence[Vector], target: Vector) -> list[Fraction] | None:
    """Coefficients c with sum c_i basis_i = target, or None when there are none."""
    k = len(basis)
    # Augmented matrix with columns = basis vectors, last column = target.
    rows = [[b[i] for b in basis] + [t] for i, t in enumerate(target)]
    mat, pivots = _row_reduce(rows, k)
    # Inconsistent if a zero row has nonzero RHS.
    if any(row[k] for row in mat[len(pivots):]):
        return None
    sol = [Fraction(0)] * k
    for row, c in zip(mat, pivots):
        sol[c] = row[k]
    # Free columns default to zero; verify (guards underdetermined systems).
    check = [Fraction(0)] * len(target)
    for j in range(k):
        if sol[j]:
            for i in range(len(target)):
                check[i] += sol[j] * basis[j][i]
    if tuple(check) != tuple(target):
        return None
    return sol


def _kernel(rows: list[list[Fraction]], width: int) -> list[list[Fraction]]:
    """A basis of {x : row . x = 0 for every row}, one vector per free column."""
    mat, pivots = _row_reduce(rows, width)
    out = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for row, c in zip(mat, pivots):
            vec[c] = -row[free]
        out.append(vec)
    return out


def _exact_sqrt(x: Fraction) -> Fraction:
    if x < 0:
        raise ValueError(f"not a square: {x}")
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ValueError(f"not a square: {x}")
    return Fraction(rn, rd)


class _Subalgebra:
    """A unital subalgebra of a Clifford algebra, in ambient coordinates."""

    def __init__(self, alg: CliffordAlgebra, one: Vector, basis: Sequence[Vector]):
        self.alg = alg
        self.one = one
        self.basis = _echelon(basis, alg.size)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def scalar_of(self, w: Vector) -> Fraction:
        """lambda with w == lambda * one; raises if w is not scalar."""
        pivot = next(i for i, a in enumerate(self.one) if a)
        lam = w[pivot] / self.one[pivot]
        if w != _scale(self.one, lam):
            raise ValueError("element is not a scalar multiple of the identity")
        return lam

    def random_element(self, rng: random.Random) -> Vector:
        out = self.alg.zero()
        for b in self.basis:
            c = rng.randint(-4, 4)
            if c:
                out = _add(out, _scale(b, Fraction(c)))
        return out

    def pure_scalar_square(
        self, w: Vector
    ) -> tuple[Vector, Fraction] | None:
        """Project w off the identity so its square is scalar.

        Every element of a quaternion algebra satisfies w^2 = t*w + s; the
        trace-free part w - t/2 then squares to the scalar s + t^2/4.  Returns
        None when w is itself scalar (the fit degenerates).
        """
        sq = self.alg.mul(w, w)
        fit = _solve_exact([w, self.one], sq)
        if fit is None:
            raise ValueError("element does not satisfy a quadratic relation")
        t, s = fit
        try:
            self.scalar_of(w)
            return None  # scalar input carries no direction
        except ValueError:
            pass
        w0 = _sub(w, _scale(self.one, t / 2))
        return w0, s + t * t / 4


def _quaternion_symbol(sub: _Subalgebra, rng: random.Random) -> tuple[Fraction, Fraction]:
    """Symbol (alpha, beta) of a 4-dimensional quaternion subalgebra.

    Finds anticommuting trace-free elements with nonzero scalar squares by
    random probing; retries skip nilpotent directions in split algebras.
    """
    if sub.dim != 4:
        raise ValueError(f"expected a 4-dimensional algebra, got dim {sub.dim}")
    for _ in range(5000):
        probe = sub.pure_scalar_square(sub.random_element(rng))
        if probe is None:
            continue
        w0, alpha = probe
        if not alpha:
            continue
        probe2 = sub.pure_scalar_square(sub.random_element(rng))
        if probe2 is None:
            continue
        y0, _ = probe2
        # Orthogonalize: for trace-free x, z the combination xz + zx is
        # scalar; subtracting the projection makes y1 anticommute with w0.
        cross = _add(sub.alg.mul(w0, y0), sub.alg.mul(y0, w0))
        sigma = sub.scalar_of(cross)
        y1 = _sub(y0, _scale(w0, sigma / (2 * alpha)))
        if not any(y1):
            continue
        beta = sub.scalar_of(sub.alg.mul(y1, y1))
        if beta:
            return alpha, beta
    raise RuntimeError("failed to probe a quaternion basis (exhausted retries)")


def _centralizer(
    sub: _Subalgebra, generators: Sequence[Vector]
) -> list[Vector]:
    """Basis of {x in sub : xg = gx for every generator g}."""
    d = sub.dim
    rows: list[list[Fraction]] = []
    for g in generators:
        # Commutator of each basis vector with g, as columns of a system.
        images = [
            _sub(sub.alg.mul(b, g), sub.alg.mul(g, b)) for b in sub.basis
        ]
        for coord in range(sub.alg.size):
            row = [img[coord] for img in images]
            if any(row):
                rows.append(row)
    # Kernel of the stacked matrix.
    kernel = _kernel(rows, d)
    return [
        tuple(
            sum((c * b[i] for c, b in zip(vec, sub.basis)), Fraction(0))
            for i in range(sub.alg.size)
        )
        for vec in kernel
    ]


def even_clifford_class_by_structure(
    q: QuadraticForm, *, seed: int = 2, component_sign: int = 1
) -> RationalClass:
    """Brauer class of the even Clifford algebra, from structure constants.

    For even dimension (trivial signed discriminant required) the class of the
    component carved out by the idempotent (1 + sign * omega/rho)/2; both signs
    give the same answer, which the tests exercise.
    """
    n = q.dim
    if not 3 <= n <= 6:
        raise ValueError(f"structure oracle supports dimensions 3..6, got {n}")
    if component_sign not in (1, -1):
        raise ValueError("component_sign must be +1 or -1")
    rng = random.Random(seed)
    alg = CliffordAlgebra(q.entries)
    even = [alg.basis_vector(m) for m in alg.even_masks()]

    if n % 2 == 1:
        sub = _Subalgebra(alg, alg.one(), even)
        one = alg.one()
    else:
        if signed_discriminant(q) != 1:
            raise ValueError(
                "even-dimensional form with nontrivial signed discriminant is "
                "outside the supported setting"
            )
        omega = alg.basis_vector(alg.size - 1)
        omega_sq = _Subalgebra(alg, alg.one(), [alg.one()]).scalar_of(
            alg.mul(omega, omega)
        )
        rho = _exact_sqrt(omega_sq)
        idem = _scale(
            _add(alg.one(), _scale(omega, Fraction(component_sign) / rho)),
            Fraction(1, 2),
        )
        component = [alg.mul(idem, b) for b in even]
        sub = _Subalgebra(alg, idem, component)
        one = idem

    if sub.dim == 4:
        alpha, beta = _quaternion_symbol(sub, rng)
        return quaternion_class(alpha, beta)

    if sub.dim != 16:
        raise AssertionError(f"unexpected even-part dimension {sub.dim}")

    # Degree-4 case: split off the quaternion subalgebra generated by the
    # projections of e1e2 and e1e3, then pair it with its centralizer.
    u = alg.mul(one, alg.basis_vector(0b011))
    v = alg.mul(one, alg.basis_vector(0b101))
    alpha = sub.scalar_of(alg.mul(u, u))
    beta = sub.scalar_of(alg.mul(v, v))
    first = quaternion_class(alpha, beta)
    cent_basis = _centralizer(sub, [u, v])
    cent = _Subalgebra(alg, one, cent_basis)
    alpha2, beta2 = _quaternion_symbol(cent, rng)
    return first + quaternion_class(alpha2, beta2)
