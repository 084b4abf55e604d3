"""Finitely presented subspaces of V and V_*, perps, and the maximality
classification of their stabilizers.

A descriptor denotes W = (span(generators) + tail) ∩ ∩ ker(functionals),
where generators are finitely supported vectors, the optional tail is
span{v_i : i >= N}, and each functional is eventually constant.  Every
such W reduces to a canonical finite model: a window 1..M-1 of explicit
coordinates plus one extra coordinate S holding the lumped tail sum
(eventually constant functionals cannot see more of the tail than that).
An infinite-dimensional ("tail") descriptor is exactly the preimage of a
subspace of the model under x -> (x_1, ..., x_{M-1}, sum_{i>=M} x_i); a
finite-dimensional one is a plain window subspace.  Minimal window plus
reduced row echelon rows make equality a tuple comparison.

Perp is the annihilator under the gl pairing between V and V_*, or the
orthogonal space under a fixed split form on V for the so/sp cases; the
class is closed under perp, finite sum, and finite intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalConsistencyError
from .linalg import in_row_space, nullspace_basis, row_space_basis

Coords = dict[int, Fraction]


def vector(entries) -> Coords:
    """Normalize {index: value} data to a finitely supported vector."""
    out: Coords = {}
    for i, v in sorted(dict(entries).items(), key=lambda kv: int(kv[0])):
        i = int(i)
        if i < 1:
            raise DomainError(f"basis indices start at 1, got {i}")
        v = Fraction(v)
        if v:
            out[i] = v
    return out


@dataclass(frozen=True)
class EvConstFunctional:
    """A functional with finitely many prescribed values and a constant tail.

    Canonical form drops trailing head entries equal to the tail.  The
    functional lies in the restricted dual exactly when the tail is 0.
    """

    head: tuple[Fraction, ...]
    tail: Fraction

    def __post_init__(self):
        head = tuple(Fraction(x) for x in self.head)
        tail = Fraction(self.tail)
        while head and head[-1] == tail:
            head = head[:-1]
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)

    def value_at(self, i: int) -> Fraction:
        return self.head[i - 1] if i <= len(self.head) else self.tail

    def __call__(self, vec: Coords) -> Fraction:
        return sum((c * self.value_at(i) for i, c in vec.items()), Fraction(0))


ALL_ONES = EvConstFunctional((), Fraction(1))


class SubspaceDescriptor:
    """Canonical model of one descriptor subspace.

    Attributes:
        space: "V" or "V*".
        window: M; coordinates 1..M-1 explicit, the tail starts at M.
        rows: RREF basis of the model subspace of Q^M (window + S column).
        has_tail: infinite-dimensional iff True.  With a tail, membership
            means mu(x) in rowspace; without, x must live inside the window.
    """

    __slots__ = ("space", "window", "rows", "has_tail")

    def __init__(self, space: str, window: int, rows, has_tail: bool):
        if space not in ("V", "V*"):
            raise DomainError(f"space must be 'V' or 'V*', got {space!r}")
        self.space = space
        self.window = window
        self.rows = tuple(tuple(Fraction(x) for x in r) for r in rows)
        self.has_tail = has_tail
        self._canonicalize()

    # -- construction -----------------------------------------------------

    @staticmethod
    def build(space="V", generators=(), tail_from=None, kernels=()) -> "SubspaceDescriptor":
        gens = [vector(g) for g in generators]
        kers = [
            k if isinstance(k, EvConstFunctional) else EvConstFunctional(tuple(k[0]), k[1])
            for k in kernels
        ]
        if tail_from is not None and tail_from < 1:
            raise DomainError(f"tail_from must be >= 1, got {tail_from}")
        window = max(
            [tail_from or 1]
            + [max(g) + 1 for g in gens if g]
            + [len(k.head) + 1 for k in kers]
            + [1]
        )
        span: list[list[Fraction]] = []
        for g in gens:
            row = [g.get(i, Fraction(0)) for i in range(1, window)]
            row.append(sum((c for i, c in g.items() if i >= window), Fraction(0)))
            span.append(row)
        if tail_from is not None:
            for i in range(tail_from, window):
                row = [Fraction(0)] * window
                row[i - 1] = Fraction(1)
                span.append(row)
            s_dir = [Fraction(0)] * window
            s_dir[-1] = Fraction(1)
            span.append(s_dir)
        basis = row_space_basis(span)
        if kers:
            conditions = []
            for k in kers:
                cond = [k.value_at(i) for i in range(1, window)] + [k.tail]
                conditions.append([
                    sum((c * b for c, b in zip(cond, row)), Fraction(0)) for row in basis
                ])
            solutions = nullspace_basis(conditions, len(basis))
            basis = row_space_basis(
                [
                    [sum((t * row[c] for t, row in zip(sol, basis)), Fraction(0)) for c in range(window)]
                    for sol in solutions
                ]
            )
        return SubspaceDescriptor(space, window, basis, tail_from is not None)

    @staticmethod
    def zero(space="V") -> "SubspaceDescriptor":
        return SubspaceDescriptor(space, 1, [], False)

    @staticmethod
    def full(space="V") -> "SubspaceDescriptor":
        return SubspaceDescriptor(space, 1, [[Fraction(1)]], True)

    @staticmethod
    def span(vectors, space="V") -> "SubspaceDescriptor":
        return SubspaceDescriptor.build(space, generators=vectors)

    @staticmethod
    def tail(start: int, space="V") -> "SubspaceDescriptor":
        return SubspaceDescriptor.build(space, tail_from=start)

    @staticmethod
    def kernel(functionals, space="V") -> "SubspaceDescriptor":
        """Common kernel inside the whole space."""
        return SubspaceDescriptor.build(space, tail_from=1, kernels=functionals)

    # -- canonical form ----------------------------------------------------

    def _canonicalize(self):
        rows = [list(r) for r in row_space_basis([list(r) for r in self.rows])]
        window = self.window
        if not self.has_tail and any(r[-1] != 0 for r in rows):
            raise InternalConsistencyError("finite descriptor with a live tail coordinate")
        while window > 1:
            if self.has_tail:
                probe = [Fraction(0)] * window
                probe[window - 2] = Fraction(1)
                probe[window - 1] = Fraction(-1)
                if not in_row_space(probe, rows):
                    break
                rows = row_space_basis(
                    [r[: window - 2] + [r[window - 2] + r[window - 1]] for r in rows]
                )
            else:
                if any(r[window - 2] != 0 for r in rows):
                    break
                rows = row_space_basis([r[: window - 2] + [r[window - 1]] for r in rows])
            window -= 1
        self.window = window
        self.rows = tuple(tuple(r) for r in rows)

    def _key(self):
        return (self.space, self.has_tail, self.window, self.rows)

    def __eq__(self, other):
        return isinstance(other, SubspaceDescriptor) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        kind = "tail" if self.has_tail else "finite"
        return f"SubspaceDescriptor({self.space}, window={self.window}, {kind}, rank={len(self.rows)})"

    # -- window alignment ---------------------------------------------------

    def at_window(self, window: int) -> "SubspaceDescriptor":
        """Equivalent model with a larger window (used to align operands)."""
        if window < self.window:
            raise DomainError("cannot shrink a window explicitly")
        rows = [list(r) for r in self.rows]
        m = self.window
        while m < window:
            if self.has_tail:
                rows = [r[:-1] + [r[-1], Fraction(0)] for r in rows]
                extra = [Fraction(0)] * (m + 1)
                extra[m - 1] = Fraction(1)
                extra[m] = Fraction(-1)
                rows.append(extra)
            else:
                rows = [r[:-1] + [Fraction(0), r[-1]] for r in rows]
            m += 1
        out = SubspaceDescriptor.__new__(SubspaceDescriptor)
        out.space = self.space
        out.window = window
        out.rows = tuple(tuple(r) for r in row_space_basis(rows))
        out.has_tail = self.has_tail
        return out

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.has_tail and not self.rows

    def is_full(self) -> bool:
        return self.has_tail and len(self.rows) == self.window

    @property
    def dim(self) -> int | None:
        """Dimension; None means countably infinite."""
        return None if self.has_tail else len(self.rows)

    @property
    def codim(self) -> int | None:
        """Codimension in the ambient space; None means infinite."""
        return self.window - len(self.rows) if self.has_tail else None

    def contains(self, vec) -> bool:
        vec = vector(vec)
        if not self.has_tail and any(i >= self.window for i in vec):
            return False
        image = [vec.get(i, Fraction(0)) for i in range(1, self.window)]
        image.append(sum((c for i, c in vec.items() if i >= self.window), Fraction(0)))
        return in_row_space(image, [list(r) for r in self.rows])

    def contains_space(self, other: "SubspaceDescriptor") -> bool:
        if other.space != self.space:
            raise DomainError("space mismatch")
        if other.has_tail and not self.has_tail:
            return False
        m = max(self.window, other.window)
        a, b = self.at_window(m), other.at_window(m)
        return all(in_row_space(list(r), [list(x) for x in a.rows]) for r in b.rows)


def descriptor_sum(a: SubspaceDescriptor, b: SubspaceDescriptor) -> SubspaceDescriptor:
    if a.space != b.space:
        raise DomainError("cannot add subspaces of different spaces")
    m = max(a.window, b.window)
    a, b = a.at_window(m), b.at_window(m)
    return SubspaceDescriptor(a.space, m, list(a.rows) + list(b.rows), a.has_tail or b.has_tail)


def descriptor_intersection(a: SubspaceDescriptor, b: SubspaceDescriptor) -> SubspaceDescriptor:
    if a.space != b.space:
        raise DomainError("cannot intersect subspaces of different spaces")
    m = max(a.window, b.window)
    a, b = a.at_window(m), b.at_window(m)
    conditions = nullspace_basis([list(r) for r in a.rows], m) + nullspace_basis(
        [list(r) for r in b.rows], m
    )
    rows = nullspace_basis(conditions, m)
    return SubspaceDescriptor(a.space, m, rows, a.has_tail and b.has_tail)


# -- forms and perps ---------------------------------------------------------


@dataclass(frozen=True)
class StandardForm:
    """The split form pairing v_{2i-1} with v_{2i}: symmetric or symplectic."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("symmetric", "symplectic"):
            raise DomainError(f"form kind must be symmetric or symplectic, got {self.kind!r}")

    @property
    def sign(self) -> int:
        return 1 if self.kind == "symmetric" else -1

    def pair_basis(self, i: int, j: int) -> Fraction:
        if j == i + 1 and i % 2 == 1:
            return Fraction(1)
        if i == j + 1 and j % 2 == 1:
            return Fraction(self.sign)
        return Fraction(0)

    def pairing(self, x: Coords, y: Coords) -> Fraction:
        total = Fraction(0)
        for i, c in x.items():
            partner = i + 1 if i % 2 == 1 else i - 1
            d = y.get(partner)
            if d:
                total += c * d * self.pair_basis(i, partner)
        return total


GL_PAIRING = "gl"


def _odd_window(w: SubspaceDescriptor) -> SubspaceDescriptor:
    # Form computations need the window to close under the basis pairing.
    return w if w.window % 2 == 1 else w.at_window(w.window + 1)


def _j_window(row, sign: int):
    """Apply the musical map of the split form to a window vector."""
    out = list(row)
    for i in range(0, len(row) - 1, 2):
        out[i], out[i + 1] = sign * row[i + 1], row[i]
    return [Fraction(x) for x in out]


def perp(w: SubspaceDescriptor, context=GL_PAIRING) -> SubspaceDescriptor:
    """Annihilator under the gl pairing, or orthogonal space under a form.

    gl: subspaces of V map to subspaces of V_* and back.  so/sp: subspaces
    of V map to subspaces of V.  The descriptor class is closed under both.
    Both cases annihilate the window projection of the rows (through the
    musical map J for a form).  The perp of a tail descriptor must vanish
    on all deep tail differences, hence is finite; the perp of a finite
    one contains the whole tail, hence gains the S row.
    """
    if context == GL_PAIRING:
        target = "V*" if w.space == "V" else "V"
        conditions = [list(r[:-1]) for r in w.rows]
    else:
        if not isinstance(context, StandardForm):
            raise DomainError(f"unknown perp context {context!r}")
        if w.space != "V":
            raise DomainError("form-orthogonal complements are taken inside V")
        target = "V"
        w = _odd_window(w)
        conditions = [_j_window(r[:-1], context.sign) for r in w.rows]
    rows = [r + [Fraction(0)] for r in nullspace_basis(conditions, w.window - 1)]
    if not w.has_tail:
        rows.append([Fraction(0)] * (w.window - 1) + [Fraction(1)])
    return SubspaceDescriptor(target, w.window, rows, not w.has_tail)


def double_perp_closed(w: SubspaceDescriptor, context=GL_PAIRING):
    """Whether W equals its double perp; on failure, a witness in the gap."""
    closure = perp(perp(w, context), context)
    if closure == w:
        return True, None
    gap = _gap_vector(closure, w)
    if gap is None:
        raise InternalConsistencyError("double perp differs but no witness row found")
    return False, gap


def is_isotropic(w: SubspaceDescriptor, form: StandardForm) -> bool:
    """The form vanishes identically on W.  Tail descriptors contain paired
    basis vectors deep in the tail and are never isotropic."""
    if w.space != "V":
        raise DomainError("isotropy is a property of subspaces of V")
    if w.has_tail:
        return False
    w = _odd_window(w)
    vecs = [list(r[:-1]) for r in w.rows]
    for a in vecs:
        for b in vecs:
            jb = _j_window(b, form.sign)
            if sum((x * y for x, y in zip(a, jb)), Fraction(0)) != 0:
                return False
    return True


# -- maximality classification ----------------------------------------------

COMMUTATOR_TOKEN = "[g,g]"
FORM_TOKENS = {"so_form": "symmetric", "sp_form": "symplectic"}

CASE_SUMMARY = {
    "ia": "the commutator subalgebra sl(V, V_*) inside gl(V, V_*)",
    "ib": "stabilizer of a codimension-1 subspace with zero perp; isomorphic to gl(infinity)",
    "ic": "stabilizer of a proper subspace closed under double perp",
    "iia": "an orthogonal or symplectic subalgebra cut out by a chosen form on V",
    "iib": "stabilizer of a codimension-1 subspace with zero perp; isomorphic to sl(infinity)",
    "iic": "stabilizer of a proper subspace closed under double perp",
    "iiia": "stabilizer of a nondegenerate split summand; the direct sum of the two form algebras",
    "iiib": "stabilizer of a nondegenerate corank-1 subspace with zero perp; the form algebra of W",
    "iiic": "stabilizer of an isotropic subspace closed under double perp",
}


@dataclass(frozen=True)
class Verdict:
    algebra: str                      # gl | sl | so | sp
    tag: str                          # case tag or "NotMaximal"
    maximal: bool
    description: str
    subspace: SubspaceDescriptor | None = None
    perp_space: SubspaceDescriptor | None = None
    witness: SubspaceDescriptor | None = None
    witness_vector: tuple[tuple[int, str], ...] | None = None


def _vec_doc(vec: Coords):
    return tuple(sorted((i, str(c)) for i, c in vec.items()))


def classify_maximal(g_kind: str, w, form: StandardForm | None = None) -> Verdict:
    """Classify Stab(W) inside gl/sl/so/sp; returns the matching case tag or
    NotMaximal with an explicit witness object."""
    if g_kind not in ("gl", "sl", "so", "sp"):
        raise DomainError(f"unknown algebra kind {g_kind!r}")

    if isinstance(w, str):
        if g_kind == "gl" and w == COMMUTATOR_TOKEN:
            return Verdict("gl", "ia", True, CASE_SUMMARY["ia"])
        if g_kind == "sl" and w in FORM_TOKENS:
            return Verdict("sl", "iia", True, CASE_SUMMARY["iia"] + f" ({FORM_TOKENS[w]})")
        raise DomainError(f"token {w!r} has no meaning for {g_kind}")
    if not isinstance(w, SubspaceDescriptor):
        raise DomainError("expected a SubspaceDescriptor or a recognized token")

    if g_kind in ("gl", "sl"):
        return _classify_gl_sl(g_kind, w)
    if form is None:
        raise DomainError(f"{g_kind} classification needs a StandardForm context")
    if g_kind == "so" and form.kind != "symmetric":
        raise DomainError("so(V) requires the symmetric form")
    if g_kind == "sp" and form.kind != "symplectic":
        raise DomainError("sp(V) requires the symplectic form")
    return _classify_form(g_kind, w, form)


def _require_proper(w: SubspaceDescriptor):
    if w.is_zero() or w.is_full():
        raise DomainError(
            "the zero and full subspaces have the whole algebra as stabilizer; "
            "classification needs a proper non-zero subspace"
        )


def _gap_vector(larger: SubspaceDescriptor, smaller: SubspaceDescriptor):
    m = max(larger.window, smaller.window)
    for row in larger.at_window(m).rows:
        vec: Coords = {i + 1: c for i, c in enumerate(row[:-1]) if c}
        if row[-1]:
            vec[m] = row[-1]
        if not smaller.contains(vec):
            return vec
    return None


def _classify_gl_sl(g_kind: str, w: SubspaceDescriptor) -> Verdict:
    _require_proper(w)
    p = perp(w)
    closure = perp(p)
    tag_b, tag_c = ("ib", "ic") if g_kind == "gl" else ("iib", "iic")
    if closure == w:
        return Verdict(g_kind, tag_c, True, CASE_SUMMARY[tag_c], subspace=w, perp_space=p)
    if w.codim == 1 and p.is_zero():
        return Verdict(g_kind, tag_b, True, CASE_SUMMARY[tag_b], subspace=w, perp_space=p)
    if closure.is_full():
        raise InternalConsistencyError(
            "dense non-closed descriptor of codimension >= 2; unreachable in this class"
        )
    gap = _gap_vector(closure, w)
    return Verdict(
        g_kind,
        "NotMaximal",
        False,
        "the double perp is a strictly larger proper subspace with a strictly "
        "larger stabilizer",
        subspace=w,
        perp_space=p,
        witness=closure,
        witness_vector=_vec_doc(gap) if gap else None,
    )


def _isotropic_line(w: SubspaceDescriptor, form: StandardForm):
    """A rational isotropic line inside a 2-dimensional nondegenerate W, if any."""
    rows = [list(r[:-1]) for r in _odd_window(w).rows]

    def b(x, y):
        return sum((a * c for a, c in zip(x, _j_window(y, form.sign))), Fraction(0))

    a, c = rows
    if b(a, a) == 0:
        line = a
    elif b(c, c) == 0:
        line = c
    else:
        # b(a + t c, a + t c) = 0: quadratic in t; rational root needed.
        qa, qb, qc = b(c, c), 2 * b(a, c), b(a, a)
        disc = qb * qb - 4 * qa * qc
        root = _rational_sqrt(disc)
        if root is None:
            return None
        t = (-qb + root) / (2 * qa)
        line = [x + t * y for x, y in zip(a, c)]
    vec = {i + 1: x for i, x in enumerate(line) if x}
    return SubspaceDescriptor.span([vec])


def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    num = _isqrt_exact(q.numerator)
    den = _isqrt_exact(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _isqrt_exact(n: int):
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


def _classify_form(g_kind: str, w: SubspaceDescriptor, form: StandardForm) -> Verdict:
    _require_proper(w)
    p = perp(w, form)
    core = descriptor_intersection(w, p)
    if is_isotropic(w, form):
        closure = perp(p, form)
        if closure != w:
            raise InternalConsistencyError("isotropic descriptors are finite, hence closed")
        return Verdict(g_kind, "iiic", True, CASE_SUMMARY["iiic"], subspace=w, perp_space=p)
    if not core.is_zero():
        return Verdict(
            g_kind,
            "NotMaximal",
            False,
            "W is degenerate: its stabilizer preserves the isotropic core W ∩ W^perp, "
            "whose stabilizer is strictly larger",
            subspace=w,
            perp_space=p,
            witness=core,
        )
    if p.is_zero():
        if w.codim != 1:
            raise InternalConsistencyError(
                "zero perp forces codimension 1 in the descriptor class"
            )
        return Verdict(g_kind, "iiib", True, CASE_SUMMARY["iiib"], subspace=w, perp_space=p)
    total = descriptor_sum(w, p)
    if total.is_full():
        if g_kind == "so" and (w.dim == 2 or p.dim == 2):
            side = w if w.dim == 2 else p
            line = _isotropic_line(side, form)
            return Verdict(
                g_kind,
                "NotMaximal",
                False,
                "a nondegenerate plane summand of a split symmetric form contains "
                "isotropic lines fixed by its rank-1 orthogonal algebra; the "
                "stabilizer of such a line is strictly larger",
                subspace=w,
                perp_space=p,
                witness=line,
            )
        return Verdict(g_kind, "iiia", True, CASE_SUMMARY["iiia"], subspace=w, perp_space=p)
    return Verdict(
        g_kind,
        "NotMaximal",
        False,
        "W ⊕ W^perp is a proper subspace; its stabilizer strictly contains Stab W",
        subspace=w,
        perp_space=p,
        witness=total,
    )


# -- uniqueness harness --------------------------------------------------------


@dataclass(frozen=True)
class UniquenessReport:
    same_case: bool
    same_invariant: bool
    witness_vector: tuple[tuple[int, str], ...] | None


def uniqueness_invariant(verdict: Verdict):
    """The canonical object that determines the stabilizer in each maximal case."""
    if not verdict.maximal:
        raise DomainError("uniqueness applies to maximal verdicts only")
    if verdict.tag in ("ia", "iia"):
        return verdict.tag
    if verdict.tag == "iiia":
        pair = sorted((verdict.subspace._key(), verdict.perp_space._key()))
        return ("pair", tuple(pair))
    return ("space", verdict.subspace._key())


def uniqueness_check(g_kind: str, a: Verdict, b: Verdict) -> UniquenessReport:
    """Compare the canonical invariants of two maximal verdicts; when they
    differ, exhibit a vector separating the two subspaces."""
    if a.algebra != g_kind or b.algebra != g_kind:
        raise DomainError("verdicts come from a different algebra kind")
    same_case = a.tag == b.tag
    same_invariant = same_case and uniqueness_invariant(a) == uniqueness_invariant(b)
    witness = None
    if not same_invariant and a.subspace is not None and b.subspace is not None:
        gap = _gap_vector(a.subspace, b.subspace) or _gap_vector(b.subspace, a.subspace)
        if gap:
            witness = _vec_doc(gap)
    return UniquenessReport(same_case, same_invariant, witness)
