"""Representations of the five fixed quivers, with exact Krull-Schmidt
decomposition.

The quivers are a closed enumeration (everything downstream is
quiver-specific):

* ``F``: vertices 0..4, one arrow from each of 1..4 into the sink 0
  (four subspaces of an ambient space).
* ``S``: vertices 1..4, arrows 3->1, 3->2, 4->1, 4->2.
* ``D``: vertices 1..3, arrows 3->1, 3->2, 2->1.
* ``K``: two parallel arrows 2->1.
* ``C``: a pair of opposite arrows between 1 and 2.

A representation stores one matrix per arrow; for an arrow ``a: s->t`` the
matrix has ``dims[t]`` rows and ``dims[s]`` columns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    IndecomposabilityUndecided,
    QuiverMismatch,
    ShapeError,
    SourceMismatch,
    ZeroObject,
)
from .fields import FieldSpec, coprime_split
from .matrices import (
    Matrix,
    column_span_basis,
    direct_sum as mat_direct_sum,
    hstack,
    inverse,
    is_invertible,
    kernel_basis,
    kernel_vectors,
    min_poly,
    poly_eval_matrix,
    random_matrix,
    rref,
    solve,
)

_FITTING_TRIES = 64
_GENERATOR_TRIES = 48


def _sum_scalars(field: FieldSpec, terms) -> object:
    acc = field.zero()
    for t in terms:
        acc = field.add(acc, t)
    return acc


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    name: str
    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]

    def vertex_index(self, v: int) -> int:
        return self.vertices.index(v)

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)


QUIVERS: dict[str, Quiver] = {
    "F": Quiver(
        "F",
        (0, 1, 2, 3, 4),
        (
            Arrow("alpha", 1, 0),
            Arrow("beta", 2, 0),
            Arrow("gamma", 3, 0),
            Arrow("delta", 4, 0),
        ),
    ),
    "S": Quiver(
        "S",
        (1, 2, 3, 4),
        (
            Arrow("alpha", 3, 1),
            Arrow("beta", 3, 2),
            Arrow("gamma", 4, 1),
            Arrow("delta", 4, 2),
        ),
    ),
    "D": Quiver(
        "D",
        (1, 2, 3),
        (Arrow("alpha", 3, 1), Arrow("beta", 3, 2), Arrow("gamma", 2, 1)),
    ),
    "K": Quiver("K", (1, 2), (Arrow("alpha", 2, 1), Arrow("beta", 2, 1))),
    "C": Quiver("C", (1, 2), (Arrow("alpha", 2, 1), Arrow("beta", 1, 2))),
}


class QuiverRep:
    """Immutable representation: dims per vertex, one matrix per arrow."""

    __slots__ = ("field", "quiver", "dims", "mats")

    def __init__(self, field: FieldSpec, quiver: Quiver, dims, mats):
        dims = tuple(int(d) for d in dims)
        if len(dims) != len(quiver.vertices):
            raise ShapeError(
                f"quiver {quiver.name} has {len(quiver.vertices)} vertices, got {len(dims)} dims"
            )
        if any(d < 0 for d in dims):
            raise ShapeError("negative dimension")
        if isinstance(mats, dict):
            missing = [a.name for a in quiver.arrows if a.name not in mats]
            if missing:
                raise ShapeError(f"missing matrices for arrows {missing}")
            mats = tuple(mats[a.name] for a in quiver.arrows)
        else:
            mats = tuple(mats)
            if len(mats) != len(quiver.arrows):
                raise ShapeError(
                    f"quiver {quiver.name} has {len(quiver.arrows)} arrows, got {len(mats)} matrices"
                )
        for a, m in zip(quiver.arrows, mats):
            if m.field != field:
                raise FieldMismatch(
                    f"arrow {a.name}: matrix over {m.field.name}, rep over {field.name}"
                )
            want = (dims[quiver.vertex_index(a.target)], dims[quiver.vertex_index(a.source)])
            if (m.rows, m.cols) != want:
                raise ShapeError(
                    f"arrow {a.name}: expected {want[0]}x{want[1]}, got {m.rows}x{m.cols}"
                )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mats", mats)

    def __setattr__(self, name, value):
        raise AttributeError("QuiverRep is immutable")

    def __reduce__(self):
        # rebuild through the singleton table: quivers compare by identity
        return (_rebuild_rep, (self.field, self.quiver.name, self.dims, self.mats))

    @staticmethod
    def zero(field: FieldSpec, quiver: Quiver) -> "QuiverRep":
        dims = (0,) * len(quiver.vertices)
        return QuiverRep(
            field, quiver, dims, [Matrix.zeros(field, 0, 0) for _ in quiver.arrows]
        )

    def dim(self, v: int) -> int:
        return self.dims[self.quiver.vertex_index(v)]

    def mat(self, arrow_name: str) -> Matrix:
        for a, m in zip(self.quiver.arrows, self.mats):
            if a.name == arrow_name:
                return m
        raise KeyError(arrow_name)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuiverRep)
            and self.field == other.field
            and self.quiver is other.quiver
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def __hash__(self) -> int:
        return hash((self.field, self.quiver.name, self.dims, self.mats))

    def __repr__(self) -> str:
        return f"QuiverRep({self.quiver.name}, {self.field.name}, dims={self.dims})"

    def sort_key(self):
        """Deterministic total order: dims, then raw matrix entries."""
        return (self.dims, tuple(m.entries for m in self.mats))


def _rebuild_rep(field: FieldSpec, quiver_name: str, dims, mats) -> QuiverRep:
    return QuiverRep(field, QUIVERS[quiver_name], dims, mats)


def validate(rep: QuiverRep) -> None:
    """Re-check all shape invariants (the constructor enforces them too)."""
    QuiverRep(rep.field, rep.quiver, rep.dims, rep.mats)


class RepMorphism:
    """A morphism of representations: one matrix per vertex, commuting with
    all arrow matrices."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: QuiverRep, target: QuiverRep, comps):
        if source.quiver is not target.quiver:
            raise QuiverMismatch(f"{source.quiver.name} vs {target.quiver.name}")
        if source.field != target.field:
            raise FieldMismatch(f"{source.field.name} vs {target.field.name}")
        if isinstance(comps, dict):
            comps = tuple(comps[v] for v in source.quiver.vertices)
        else:
            comps = tuple(comps)
        if len(comps) != len(source.quiver.vertices):
            raise ShapeError("one component per vertex required")
        for v, c, nt, ns in zip(source.quiver.vertices, comps, target.dims, source.dims):
            want = (nt, ns)
            if (c.rows, c.cols) != want:
                raise ShapeError(
                    f"component at vertex {v}: expected {want[0]}x{want[1]}, got {c.rows}x{c.cols}"
                )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "comps", comps)

    def __setattr__(self, name, value):
        raise AttributeError("RepMorphism is immutable")

    @staticmethod
    def identity(rep: QuiverRep) -> "RepMorphism":
        return RepMorphism(
            rep, rep, [Matrix.identity(rep.field, d) for d in rep.dims]
        )

    def comp(self, v: int) -> Matrix:
        return self.comps[self.source.quiver.vertex_index(v)]

    def is_valid(self) -> bool:
        """Do all commutation squares hold?"""
        for a in self.source.quiver.arrows:
            lhs = self.comp(a.target) @ self.source.mat(a.name)
            rhs = self.target.mat(a.name) @ self.comp(a.source)
            if lhs != rhs:
                return False
        return True

    @property
    def is_invertible(self) -> bool:
        return all(is_invertible(c) for c in self.comps)

    def inverse(self) -> "RepMorphism":
        return RepMorphism(self.target, self.source, [inverse(c) for c in self.comps])

    def __matmul__(self, other: "RepMorphism") -> "RepMorphism":
        """Composition self after other."""
        if other.target is not self.source and other.target != self.source:
            raise SourceMismatch("composition: inner target != outer source")
        return RepMorphism(
            other.source, self.target, [a @ b for a, b in zip(self.comps, other.comps)]
        )

    def __add__(self, other: "RepMorphism") -> "RepMorphism":
        return RepMorphism(
            self.source, self.target, [a + b for a, b in zip(self.comps, other.comps)]
        )

    def scale(self, c) -> "RepMorphism":
        return RepMorphism(self.source, self.target, [m.scale(c) for m in self.comps])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RepMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.source, self.target, self.comps))


def hom_basis(v: QuiverRep, w: QuiverRep) -> list[RepMorphism]:
    """Canonical basis of Hom(v, w).

    Unknowns are the entries of all vertex components (vertex order, then
    row-major); each arrow a: s -> t contributes one equation
    (X_t A - B X_s)_(i,j) = 0 per entry, and the basis is the canonical
    null-space basis of that system (kernel_basis).  The equations are read
    straight from the arrow matrices' entry tuples.  Over F_p they never
    become a Matrix: over F_2 each is one int bitmask (column j of A at the
    X_t block, XOR row i of B spread with stride dims_v[s] into the X_s
    block), over odd p one residue list, and matrices.kernel_vectors reduces
    them and reads the basis off.  Over Q they are the rows of a Matrix.
    """
    if v.quiver is not w.quiver:
        raise QuiverMismatch(f"{v.quiver.name} vs {w.quiver.name}")
    if v.field != w.field:
        raise FieldMismatch(f"{v.field.name} vs {w.field.name}")
    f = v.field
    Q = v.quiver
    offsets = []
    total = 0
    for nv, nw in zip(v.dims, w.dims):
        offsets.append(total)
        total += nw * nv
    # per arrow s -> t: A, B entries, dims_v[s], dims_v[t], dims_w[s],
    # dims_w[t] and the offsets of the X_s and X_t blocks
    squares = []
    for a, A, B in zip(Q.arrows, v.mats, w.mats):
        si, ti = Q.vertex_index(a.source), Q.vertex_index(a.target)
        squares.append((
            A.entries, B.entries, v.dims[si], v.dims[ti], w.dims[si], w.dims[ti],
            offsets[si], offsets[ti],
        ))
    if f.p == 2:
        vectors = kernel_vectors(f, _gf2_equations(squares), total)
    elif f.p is not None:
        vectors = kernel_vectors(f, _dense_equations(f, squares, total), total)
    else:
        rows = _dense_equations(f, squares, total)
        kern = kernel_basis(Matrix(f, len(rows), total, [x for r in rows for x in r]))
        vectors = [kern.col(c) for c in range(kern.cols)]
    result = []
    for vec in vectors:
        comps = [
            Matrix(f, nw, nv, vec[off : off + nw * nv])
            for off, nv, nw in zip(offsets, v.dims, w.dims)
        ]
        result.append(RepMorphism(v, w, comps))
    return result


def _gf2_equations(squares) -> list[int]:
    """The commutation equations over F_2 as bitmasks, bit = unknown."""
    rows = []
    for A, B, nvs, nvt, nws, nwt, off_s, off_t in squares:
        col_a = [
            sum(1 << k for k in range(nvt) if A[k * nvs + j]) for j in range(nvs)
        ]
        for i in range(nwt):
            row_b = sum(1 << (k * nvs) for k in range(nws) if B[i * nws + k]) << off_s
            shift = off_t + i * nvt
            rows.extend((c << shift) ^ (row_b << j) for j, c in enumerate(col_a))
    return rows


def _dense_equations(f: FieldSpec, squares, total: int) -> list[list]:
    """The commutation equations as dense rows of field values: column j of
    A at the X_t block, minus row i of B with stride dims_v[s] in the X_s
    block."""
    z = f.zero()
    rows = []
    for A, B, nvs, nvt, nws, nwt, off_s, off_t in squares:
        for i in range(nwt):
            neg_b = [f.neg(c) for c in B[i * nws : (i + 1) * nws]]
            start = off_t + i * nvt
            for j in range(nvs):
                row = [z] * total
                row[start : start + nvt] = A[j::nvs]
                if off_s == off_t:  # a loop: both terms are in one block
                    for k, c in zip(range(off_s + j, total, nvs), neg_b):
                        row[k] = f.add(row[k], c)
                else:
                    row[off_s + j : off_s + j + nws * nvs : nvs] = neg_b
                rows.append(row)
    return rows


def end_dim(v: QuiverRep) -> int:
    return len(hom_basis(v, v))


def direct_sum(*reps: QuiverRep) -> QuiverRep:
    if not reps:
        raise DimensionMismatch("direct_sum of nothing")
    first = reps[0]
    for r in reps[1:]:
        if r.quiver is not first.quiver:
            raise QuiverMismatch(f"{first.quiver.name} vs {r.quiver.name}")
        if r.field != first.field:
            raise FieldMismatch(f"{first.field.name} vs {r.field.name}")
    dims = tuple(sum(r.dims[i] for r in reps) for i in range(len(first.dims)))
    mats = [
        mat_direct_sum(*[r.mats[i] for r in reps]) for i in range(len(first.mats))
    ]
    return QuiverRep(first.field, first.quiver, dims, mats)


def summand_injections(reps: list[QuiverRep]) -> list[RepMorphism]:
    """Block-column inclusions of each summand into direct_sum(*reps)."""
    total = direct_sum(*reps)
    f = total.field
    out = []
    offset = [0] * len(total.dims)
    for r in reps:
        comps = []
        for i, vert in enumerate(total.quiver.vertices):
            m = Matrix.zeros(f, total.dims[i], r.dims[i])
            e = list(m.entries)
            for j in range(r.dims[i]):
                e[(offset[i] + j) * r.dims[i] + j] = f.one()
            comps.append(Matrix(f, total.dims[i], r.dims[i], e))
        out.append(RepMorphism(r, total, comps))
        offset = [o + d for o, d in zip(offset, r.dims)]
    return out


def summand_projections(reps: list[QuiverRep]) -> list[RepMorphism]:
    """Block-row projections of direct_sum(*reps) onto each summand."""
    return [
        RepMorphism(inj.target, inj.source, [c.transpose() for c in inj.comps])
        for inj in summand_injections(reps)
    ]


# -- isomorphism testing --------------------------------------------------------


def _first_invertible(homs: list[RepMorphism]) -> Optional[RepMorphism]:
    """The first morphism in homs that is invertible at every vertex."""
    for h in homs:
        # check the smallest components first for an early exit
        if all(is_invertible(c) for c in sorted(h.comps, key=lambda c: c.rows)):
            return h
    return None


def _iso_to_indecomposable(v: QuiverRep, w: QuiverRep) -> Optional[RepMorphism]:
    """An isomorphism v -> w taken from the basis of Hom(v, w), or None.

    None is certified when v or w is indecomposable.  Its endomorphism ring
    is then local, so if phi: v -> w is an isomorphism the non-invertible
    morphisms form the proper subspace phi . rad End v of Hom(v, w), and
    every basis of Hom(v, w) has an element outside it (Auslander-Reiten-
    Smalø, Representation Theory of Artin Algebras, ch. I-II).
    """
    if v.dims != w.dims:
        return None
    return _first_invertible(hom_basis(v, w))


def find_isomorphism(v: QuiverRep, w: QuiverRep, seed: int = 0) -> Optional[RepMorphism]:
    """An isomorphism v -> w, or None when v and w are not isomorphic.

    Both answers are certified on every field:

    * a hom-basis element invertible at every vertex is returned as it is;
      this settles every pair in which v or w is indecomposable;
    * dim Hom(v, w) must equal dim End v and dim End w;
    * otherwise the certified Krull-Schmidt pieces of v and w are matched
      one to one by the hom-basis test, and the witness
      P_w (f_1 + ... + f_n) P_v^-1 is assembled from the piece inclusions
      P and the piece isomorphisms f_k, then checked before it is returned.

    Raises IndecomposabilityUndecided when a piece cannot be certified
    indecomposable.  The seed steers the search for splitting
    endomorphisms, never the answer.
    """
    if v.quiver is not w.quiver:
        raise QuiverMismatch(f"{v.quiver.name} vs {w.quiver.name}")
    if v.field != w.field:
        raise FieldMismatch(f"{v.field.name} vs {w.field.name}")
    if v.dims != w.dims:
        return None
    if v.total_dim == 0:
        return RepMorphism(v, w, [Matrix.zeros(v.field, 0, 0) for _ in v.dims])
    homs = hom_basis(v, w)
    found = _first_invertible(homs)
    if found is not None:
        return found
    if not len(homs) == end_dim(v) == end_dim(w):
        return None
    unmatched = _pieces(w, seed)
    matched = []  # (inclusion into v, inclusion into w, piece isomorphism)
    for u, path_u in _pieces(v, seed):
        for i, (x, path_x) in enumerate(unmatched):
            f = _iso_to_indecomposable(u, x)
            if f is not None:
                matched.append((_inclusion(v, path_u), _inclusion(w, path_x), f))
                del unmatched[i]
                break
        else:
            return None
    comps = []
    for k in range(len(v.dims)):
        p_v = hstack(*[inc_u[k] for inc_u, _, _ in matched])
        p_w = hstack(*[inc_x[k] for _, inc_x, _ in matched])
        block = mat_direct_sum(*[f.comps[k] for _, _, f in matched])
        p_v_inv = inverse(p_v)
        if p_v_inv is None:
            raise ShapeError("piece inclusions do not span the source")
        comps.append(p_w @ block @ p_v_inv)
    iso = RepMorphism(v, w, comps)
    if not (iso.is_valid() and iso.is_invertible):
        raise ShapeError("assembled isomorphism failed its check")
    return iso


def is_isomorphic(v: QuiverRep, w: QuiverRep, seed: int = 0) -> bool:
    """Certified: True exactly when find_isomorphism finds a witness."""
    return find_isomorphism(v, w, seed) is not None


# -- indecomposability and decomposition ---------------------------------------


@dataclass(frozen=True)
class IndecompVerdict:
    indecomposable: bool
    certified: bool

    def __bool__(self) -> bool:
        return self.indecomposable


def _restrict_to_bases(rep: QuiverRep, bases: list[Matrix]) -> QuiverRep:
    """Subrepresentation on given arrow-invariant column bases (one per
    vertex, full column rank)."""
    Q = rep.quiver
    dims = [b.cols for b in bases]
    mats = []
    for a in Q.arrows:
        si = Q.vertex_index(a.source)
        ti = Q.vertex_index(a.target)
        image = rep.mat(a.name) @ bases[si]
        restricted = solve(bases[ti], image)
        if restricted is None:
            raise ShapeError(
                f"arrow {a.name}: candidate subspaces are not arrow-invariant"
            )
        mats.append(restricted)
    return QuiverRep(rep.field, Q, dims, mats)


def _split_by_endo_kernels(rep: QuiverRep, phi: RepMorphism, a_poly, b_poly):
    """Split rep = ker a(phi) + ker b(phi) for coprime a*b = min poly; returns
    the per-vertex bases of the two summands."""
    bases_a = [kernel_basis(poly_eval_matrix(a_poly, c)) for c in phi.comps]
    bases_b = [kernel_basis(poly_eval_matrix(b_poly, c)) for c in phi.comps]
    for ka, kb, d in zip(bases_a, bases_b, rep.dims):
        if ka.cols + kb.cols != d:
            raise ShapeError("coprime kernels do not fill the space")
    if all(ka.cols == 0 for ka in bases_a) or all(kb.cols == 0 for kb in bases_b):
        raise ShapeError("degenerate Fitting split")
    return bases_a, bases_b


def _random_endos(endos: list[RepMorphism], rep: QuiverRep, seed: int):
    """Seeded random combinations of the basis endomorphisms, as many as
    the Fitting cap leaves after the basis itself."""
    f = rep.field
    rng = random.Random(seed)
    for _ in range(max(0, _FITTING_TRIES - len(endos))):
        if f.is_prime_field:
            coeffs = [rng.randrange(f.p) for _ in endos]
        else:
            coeffs = [f.convert(rng.randint(-3, 3)) for _ in endos]
        acc = None
        for h, c in zip(endos, coeffs):
            if not c:
                continue
            term = h.scale(c)
            acc = term if acc is None else acc + term
        if acc is not None:
            yield acc


def _fitting_split(rep: QuiverRep, candidates):
    """('split', (bases_a, bases_b)) from the first candidate endomorphism
    whose minimal polynomial is not primary (Fitting's lemma), or None."""
    for phi in candidates:
        split = coprime_split(min_poly(_total_matrix(phi)))
        if split is not None:
            return ("split", _split_by_endo_kernels(rep, phi, split[0], split[1]))
    return None


def _total_matrix(phi: RepMorphism) -> Matrix:
    return mat_direct_sum(*phi.comps)


def _coords_in_basis(basis_cols: Matrix, vecs: Matrix) -> Matrix:
    out = solve(basis_cols, vecs)
    if out is None:  # pragma: no cover - basis spans by construction
        raise ShapeError("vector outside span of basis")
    return out


def _vec_morphism(phi: RepMorphism) -> list:
    return [x for c in phi.comps for x in c.entries]


def _endo_vec_basis(endos: list[RepMorphism]) -> Matrix:
    """Columns: the vectorized basis endomorphisms."""
    f = endos[0].source.field
    n_total = len(_vec_morphism(endos[0]))
    return Matrix(
        f,
        n_total,
        len(endos),
        [x for row in zip(*[_vec_morphism(h) for h in endos]) for x in row],
    )


def _product_coords(endos: list[RepMorphism], basis_cols: Matrix) -> Matrix:
    """Structure constants: column i*d+j holds the coordinates of
    endos[i] . endos[j] in the basis."""
    f = basis_cols.field
    products = [_vec_morphism(hi @ hj) for hi in endos for hj in endos]
    prod_mat = Matrix(
        f, basis_cols.rows, len(products), [x for row in zip(*products) for x in row]
    )
    return _coords_in_basis(basis_cols, prod_mat)


def _power_mod(mats: np.ndarray, e: int, mod: int) -> np.ndarray:
    """A stack of integer matrices raised to the power e >= 1, mod mod."""
    out = mats
    for bit in bin(e)[3:]:
        out = out @ out % mod
        if bit == "1":
            out = out @ mats % mod
    return out


def _radical(f: FieldSpec, d: int, lam: Matrix) -> Matrix:
    """rad E for the algebra E with basis b_0..b_{d-1} and structure
    constants b_i b_j = sum_k lam[k, i*d+j] b_k; columns are coordinates.

    Cohen-Ivanyos-Wales, "Finding the radical of an algebra of linear
    transformations" (JPAA 1997), on the left regular representation
    x -> L_x: I_{-1} = E and, for p^i <= d,
    I_i = {x in I_{i-1} : g_i(x b_k) = 0 for every k}, where
    g_i(y) = Tr(L^_y^(p^i)) / p^i mod p for the integer lift L^_y of L_y.
    The last I_i is rad E.  In characteristic 0 only g_0 = Tr runs, and
    I_0 is the kernel of the trace form.
    """
    p = f.p
    # Tr L_{b_m} = sum_k lam[k, m*d+k]; form[j, k] = Tr L_{b_j b_k}
    trace = [_sum_scalars(f, (lam.entry(k, m * d + k) for k in range(d))) for m in range(d)]
    form = Matrix(f, d, d, (Matrix(f, 1, d, trace) @ lam).entries)
    rad = kernel_basis(form.transpose())
    if p is None:
        return rad
    # int64 stays exact: levels need p <= d, so entries stay below d^2
    # and every matrix product below d^5
    lam3 = np.array(lam.entries, dtype=np.int64).reshape(d, d, d)  # [m, i, k]
    level = 1
    while rad.cols and p**level <= d:
        mod = p ** (level + 1)
        xs = np.array(rad.entries, dtype=np.int64).reshape(d, rad.cols)
        g = []  # g[j][k] = g_level(x_j b_k)
        for x in xs.T:
            prods = np.einsum("mik,i->km", lam3, x) % p  # row k: x b_k
            lifts = np.einsum("km,nmc->knc", prods, lam3) % p  # L_{x b_k}
            traces = np.trace(_power_mod(lifts, p**level, mod), axis1=1, axis2=2)
            g.append(traces % mod // p**level)
        gmat = Matrix(f, d, rad.cols, [int(row[k]) for k in range(d) for row in g])
        rad = rad @ kernel_basis(gmat)
        level += 1
    return rad


def _is_nilpotent_ideal(f: FieldSpec, d: int, lam: Matrix, rad: Matrix) -> bool:
    """Do the columns of rad span a two-sided ideal N of E with N^d = 0?

    R_x, the matrix of right multiplication by x, has column a = b_a x."""
    if not rad.cols:
        return True
    by_basis = [lam.select_cols(range(k, d * d, d)) for k in range(d)]
    stacked = Matrix(f, d * d, d, lam.entries) @ rad
    by_rad = [Matrix(f, d, d, stacked.col(j)) for j in range(rad.cols)]
    # N E is spanned by the R_{b_k} n, E N by the columns of the R_n
    if rref(hstack(rad, *by_rad, *(m @ rad for m in by_basis))).rank != rad.cols:
        return False
    power = rad  # N^s, and N^(s+1) is spanned by the R_n applied to it
    for _ in range(d):
        if not power.cols:
            break
        power = column_span_basis(hstack(*(m @ power for m in by_rad)))
    return not power.cols


def _algebra_analysis(rep: QuiverRep, endos: list[RepMorphism], seed: int):
    """Certified analysis of the endomorphism algebra E = End(rep).

    Computes rad E exactly with _radical, on every field, and raises
    ShapeError unless it is a nilpotent two-sided ideal: every verdict
    below rests on that.  The semisimple quotient E/rad is then studied by
    minimal polynomials of candidate elements: a factorization into
    distinct irreducibles lifts to a Fitting splitting, and a full-degree
    irreducible minimal polynomial of a commutative quotient certifies that
    E/rad is a field, so E is local.

    Returns ('split', (bases_a, bases_b)), ('indecomposable', True), or None
    when no candidate decides.  Over F_p a noncommutative quotient is a
    product of matrix rings and some element splits it; over Q it may be a
    noncommutative division algebra.
    """
    from .fields import poly_factor_list

    f = rep.field
    d = len(endos)
    basis_cols = _endo_vec_basis(endos)
    lam = _product_coords(endos, basis_cols)  # lam[k, i*d+j]
    rad = _radical(f, d, lam)
    if not _is_nilpotent_ideal(f, d, lam, rad):
        raise ShapeError("computed radical is not a nilpotent two-sided ideal")

    r = rad.cols
    m = d - r
    ext = hstack(rad, Matrix.identity(f, d))
    comp_idx = [p - r for p in rref(ext).pivot_cols if p >= r]
    full_cols = []
    for k in range(d):
        row = [rad.entry(k, c) for c in range(r)]
        row += [f.one() if k == comp_idx[a] else f.zero() for a in range(m)]
        full_cols.append(row)
    full = Matrix(f, d, d, [x for row in full_cols for x in row])

    def project(coord_list):
        sol = solve(full, Matrix(f, d, 1, list(coord_list)))
        return tuple(sol.entry(r + a, 0) for a in range(m))

    cbar = [
        [
            project([lam.entry(k, ia * d + ib) for k in range(d)])
            for ib in comp_idx
        ]
        for ia in comp_idx
    ]
    quotient_commutative = all(
        cbar[a][b] == cbar[b][a] for a in range(m) for b in range(a + 1, m)
    )

    def left_mult(w):
        entries = []
        for k in range(m):
            for b in range(m):
                entries.append(
                    _sum_scalars(
                        f, (f.mul(w[a], cbar[a][b][k]) for a in range(m) if w[a])
                    )
                )
        return Matrix(f, m, m, entries)

    def lift(w):
        acc = None
        for a, wa in enumerate(w):
            if not wa:
                continue
            term = endos[comp_idx[a]].scale(wa)
            acc = term if acc is None else acc + term
        return acc

    def candidates():
        zero, one = f.zero(), f.one()
        for a in range(m):
            yield tuple(one if i == a else zero for i in range(m))
        for a in range(m):
            for b in range(a + 1, m):
                yield tuple(
                    one if i in (a, b) else zero for i in range(m)
                )
                yield cbar[a][b]  # products reach beyond the linear span
                yield cbar[b][a]
        rng = random.Random(seed)
        for _ in range(_GENERATOR_TRIES):
            if f.is_prime_field:
                yield tuple(f.convert(rng.randrange(f.p)) for _ in range(m))
            else:
                yield tuple(f.convert(rng.randint(-5, 5)) for _ in range(m))

    for w in candidates():
        if not any(w):
            continue
        mp = min_poly(left_mult(w))
        factors = poly_factor_list(mp)
        if len(factors) >= 2:
            split = _fitting_split(rep, [lift(w)])
            if split is not None:  # guaranteed: mp divides the lift's min poly
                return split
        elif quotient_commutative and mp.degree == m and factors[0][1] == 1:
            # E/rad is a field, so E is local
            return ("indecomposable", True)
    return None


def _find_splitting(rep: QuiverRep, seed: int = 0):
    """Returns ('split', (bases_a, bases_b)) with the per-vertex bases of two
    complementary summands, ('indecomposable', True) certified, or
    ('indecomposable', False) when no rung decides.

    The rungs, in order: dim End = 1; a Fitting split by a hom-basis
    endomorphism; the exact analysis of End (_algebra_analysis); Fitting
    splits by seeded random combinations of the basis, for what the
    analysis leaves open (in practice Q with a noncommutative quotient).
    """
    endos = hom_basis(rep, rep)
    if len(endos) == 1:
        return ("indecomposable", True)
    return (
        _fitting_split(rep, endos)
        or _algebra_analysis(rep, endos, seed)
        or _fitting_split(rep, _random_endos(endos, rep, seed))
        or ("indecomposable", False)
    )


def is_indecomposable(v: QuiverRep, seed: int = 0) -> IndecompVerdict:
    """Layered, certified except for the last rung: dim End = 1, Fitting
    splits by the hom-basis endomorphisms, the exact radical analysis of
    End (a split, or a local End), seeded random Fitting splits, and an
    uncertified "indecomposable" when none of these decides."""
    if v.total_dim == 0:
        raise ZeroObject("the zero representation is neither decomposable nor indecomposable")
    kind, payload = _find_splitting(v, seed)
    if kind == "split":
        return IndecompVerdict(False, True)
    return IndecompVerdict(True, bool(payload))


def _pieces(v: QuiverRep, seed: int) -> list[tuple[QuiverRep, list]]:
    """Certified indecomposable pieces of v in split order, each with its
    split path: the splitting bases (one matrix per vertex) from v down to
    the piece.  The product of the path is the piece's inclusion into v."""
    out: list[tuple[QuiverRep, list]] = []

    def recurse(rep: QuiverRep, path: list) -> None:
        if rep.total_dim == 0:
            return
        kind, payload = _find_splitting(rep, seed)
        if kind == "indecomposable":
            if not payload:
                raise IndecomposabilityUndecided(
                    f"cannot certify indecomposability at dims {rep.dims} over {rep.field.name}"
                )
            out.append((rep, path))
            return
        for bases in payload:
            recurse(_restrict_to_bases(rep, bases), path + [bases])

    recurse(v, [])
    return out


def _inclusion(v: QuiverRep, path: list) -> list[Matrix]:
    """The inclusion into v of the piece at the end of a split path, one
    full-column-rank matrix per vertex."""
    if not path:
        return [Matrix.identity(v.field, d) for d in v.dims]
    inclusion = path[0]
    for bases in path[1:]:
        inclusion = [inc @ b for inc, b in zip(inclusion, bases)]
    return inclusion


def decompose(v: QuiverRep, seed: int = 0) -> list[tuple[QuiverRep, int]]:
    """Krull-Schmidt decomposition: pairwise non-isomorphic indecomposable
    summands with multiplicities, deterministically sorted."""
    classes: list[tuple[QuiverRep, int]] = []
    for piece, _ in _pieces(v, seed):
        for i, (rep0, mult) in enumerate(classes):
            if _iso_to_indecomposable(piece, rep0) is not None:
                classes[i] = (rep0, mult + 1)
                break
        else:
            classes.append((piece, 1))
    classes.sort(key=lambda pair: pair[0].sort_key())
    return classes


# -- random generation (explicit rng, reproducible) ----------------------------


def random_rep(field: FieldSpec, quiver: Quiver, dims, rng) -> QuiverRep:
    dims = tuple(dims)
    mats = []
    for a in quiver.arrows:
        r = dims[quiver.vertex_index(a.target)]
        c = dims[quiver.vertex_index(a.source)]
        mats.append(random_matrix(field, r, c, rng))
    return QuiverRep(field, quiver, dims, mats)


def random_conjugate(rep: QuiverRep, rng) -> QuiverRep:
    """An isomorphic copy through random invertible basis changes."""
    from .matrices import random_invertible

    g = [random_invertible(rep.field, d, rng) for d in rep.dims]
    Q = rep.quiver
    mats = []
    for a in Q.arrows:
        si, ti = Q.vertex_index(a.source), Q.vertex_index(a.target)
        mats.append(g[ti] @ rep.mat(a.name) @ inverse(g[si]))
    return QuiverRep(rep.field, Q, rep.dims, mats)
