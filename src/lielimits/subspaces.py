"""Finitely presented subspaces of V and V_*, perps, and the maximality
classification of their stabilizers.

A descriptor denotes W = (span(generators) + tail) ∩ ∩ ker(functionals),
where generators are finitely supported vectors, the optional tail is
span{v_i : i >= N}, and each functional is eventually constant.  Every
such W reduces to a canonical finite model: a window 1..M-1 of explicit
coordinates plus one extra coordinate S holding the lumped tail sum
(eventually constant functionals cannot see more of the tail than that).
An infinite-dimensional ("tail") descriptor is exactly the preimage of a
subspace U of the model under mu: x -> (x_1, ..., x_{M-1}, sum_{i>=M} x_i);
a finite-dimensional one is a window subspace U whose S coordinate is 0.

A descriptor stores the small side of U as reduced row echelon rows of
length M: a tail keeps the annihilator of U (codim rows, each an eventually
constant functional whose S entry is its value on the whole tail), a finite
space keeps the basis of U (dim rows).  Either way a row's S entry is its
value at every index from M on, so widening the window repeats that entry,
and the minimal window plus the rows make equality a tuple comparison.
Perp swaps the two sides; sum and intersection concatenate rows or restrict
the rows of one operand by those of the other.

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


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b) if x), Fraction(0))


def _lincomb(coeffs, rows) -> list[Fraction]:
    terms = [(t, r) for t, r in zip(coeffs, rows) if t]
    return [sum((t * r[j] for t, r in terms), Fraction(0)) for j in range(len(rows[0]))]


def _restrict(rows, conditions) -> list[list[Fraction]]:
    """RREF rows spanning the x in rowspace(rows) with c . x = 0 for every condition c."""
    if not rows:
        return []
    values = [[_dot(c, r) for r in rows] for c in conditions]
    return row_space_basis([_lincomb(t, rows) for t in nullspace_basis(values, len(rows))])


def _meet(a, b) -> list[list[Fraction]]:
    """RREF rows spanning rowspace(a) ∩ rowspace(b): from each relation
    sum s_i a_i + sum t_j b_j = 0, the common vector sum s_i a_i."""
    if not a or not b:
        return []
    columns = [list(col) for col in zip(*a, *b)]
    relations = nullspace_basis(columns, len(a) + len(b))
    return row_space_basis([_lincomb(t[: len(a)], a) for t in relations])


class SubspaceDescriptor:
    """Canonical model of one descriptor subspace.

    Attributes:
        space: "V" or "V*".
        window: M; coordinates 1..M-1 explicit, the tail starts at M.
        has_tail: infinite-dimensional iff True.
        small: RREF rows of length M.  With a tail, the annihilator of the
            model subspace U: x lies in W iff every row vanishes on mu(x).
            Without, the basis of U (S entry 0): x must live inside the
            window and in the row space.

    The constructor takes a basis of U itself, as `rows` gives it and
    reports print it.
    """

    __slots__ = ("space", "window", "small", "has_tail")

    def __init__(self, space: str, window: int, rows, has_tail: bool):
        rows = [[Fraction(x) for x in r] for r in rows]
        if has_tail:
            small = nullspace_basis(rows, window)
        else:
            small = row_space_basis(rows)
            if any(r[-1] != 0 for r in small):
                raise DomainError("rows of a finite descriptor must have a zero tail entry")
        self._set(space, window, small, has_tail)

    def _set(self, space, window, small, has_tail):
        """Store RREF small-side rows at the minimal window: explicit columns
        equal to the S column in every row are folded into the tail, which
        keeps the rows reduced."""
        if space not in ("V", "V*"):
            raise DomainError(f"space must be 'V' or 'V*', got {space!r}")
        cut = window - 1
        while cut > 0 and all(r[cut - 1] == r[-1] for r in small):
            cut -= 1
        self.space = space
        self.window = cut + 1
        self.small = tuple(tuple(r[:cut]) + (r[-1],) for r in small)
        self.has_tail = has_tail

    @staticmethod
    def _of(space, window, small, has_tail) -> "SubspaceDescriptor":
        out = SubspaceDescriptor.__new__(SubspaceDescriptor)
        out._set(space, window, small, has_tail)
        return out

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
        zero = Fraction(0)
        span = [[g.get(i, zero) for i in range(1, window)] + [zero] for g in gens]
        conditions = [[k.value_at(i) for i in range(1, window)] + [k.tail] for k in kers]
        if tail_from is None:
            small = _restrict(span, conditions)
        else:
            # span + tail is annihilated by the functionals on the head
            # 1..tail_from-1 that kill every generator; add the kernels.
            head = tail_from - 1
            pad = [zero] * (window - head)
            small = row_space_basis(
                [a + pad for a in nullspace_basis([r[:head] for r in span], head)] + conditions
            )
        return SubspaceDescriptor._of(space, window, small, tail_from is not None)

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

    def _key(self):
        return (self.space, self.has_tail, self.window, self.small)

    def __eq__(self, other):
        return isinstance(other, SubspaceDescriptor) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        kind = "tail" if self.has_tail else "finite"
        rank = self.window - len(self.small) if self.has_tail else len(self.small)
        return f"SubspaceDescriptor({self.space}, window={self.window}, {kind}, rank={rank})"

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """RREF basis of the model subspace U of Q^M; a tail derives it from
        its annihilator."""
        if not self.has_tail:
            return self.small
        return tuple(tuple(r) for r in nullspace_basis(self.small, self.window))

    # -- window alignment ---------------------------------------------------

    def at_window(self, window: int) -> "SubspaceDescriptor":
        """Equivalent model with a larger window (used to align operands)."""
        if window < self.window:
            raise DomainError("cannot shrink a window explicitly")
        out = SubspaceDescriptor.__new__(SubspaceDescriptor)
        out.space = self.space
        out.window = window
        out.small = tuple(r[:-1] + r[-1:] * (window - self.window + 1) for r in self.small)
        out.has_tail = self.has_tail
        return out

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.has_tail and not self.small

    def is_full(self) -> bool:
        return self.has_tail and not self.small

    @property
    def dim(self) -> int | None:
        """Dimension; None means countably infinite."""
        return None if self.has_tail else len(self.small)

    @property
    def codim(self) -> int | None:
        """Codimension in the ambient space; None means infinite."""
        return len(self.small) if self.has_tail else None

    def contains(self, vec) -> bool:
        vec = vector(vec)
        m = self.window
        if self.has_tail:
            return all(
                sum((c * r[min(i, m) - 1] for i, c in vec.items()), Fraction(0)) == 0
                for r in self.small
            )
        if any(i >= m for i in vec):
            return False
        return in_row_space([vec.get(i, Fraction(0)) for i in range(1, m + 1)], self.small)

    def contains_space(self, other: "SubspaceDescriptor") -> bool:
        if other.space != self.space:
            raise DomainError("space mismatch")
        if other.has_tail and not self.has_tail:
            return False
        m = max(self.window, other.window)
        a, b = self.at_window(m), other.at_window(m)
        if not a.has_tail:
            return all(in_row_space(r, a.small) for r in b.small)
        if not b.has_tail:
            return all(_dot(f, r) == 0 for f in a.small for r in b.small)
        # U_b inside U_a iff the annihilator of U_a lies in that of U_b
        return all(in_row_space(f, b.small) for f in a.small)


def _aligned(a: SubspaceDescriptor, b: SubspaceDescriptor, verb: str):
    if a.space != b.space:
        raise DomainError(f"cannot {verb} subspaces of different spaces")
    m = max(a.window, b.window)
    return a.at_window(m), b.at_window(m)


def descriptor_sum(a: SubspaceDescriptor, b: SubspaceDescriptor) -> SubspaceDescriptor:
    a, b = _aligned(a, b, "add")
    if a.has_tail and b.has_tail:
        small = _meet(a.small, b.small)
    elif a.has_tail or b.has_tail:
        t, f = (a, b) if a.has_tail else (b, a)
        small = _restrict(t.small, f.small)
    else:
        small = row_space_basis(list(a.small + b.small))
    return SubspaceDescriptor._of(a.space, a.window, small, a.has_tail or b.has_tail)


def descriptor_intersection(a: SubspaceDescriptor, b: SubspaceDescriptor) -> SubspaceDescriptor:
    a, b = _aligned(a, b, "intersect")
    if a.has_tail and b.has_tail:
        small = row_space_basis(list(a.small + b.small))
    elif a.has_tail or b.has_tail:
        t, f = (a, b) if a.has_tail else (b, a)
        small = _restrict(f.small, t.small)
    else:
        small = _meet(a.small, b.small)
    return SubspaceDescriptor._of(a.space, a.window, small, a.has_tail and b.has_tail)


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
    Perp swaps the stored side.  A finite W's basis, read as functionals,
    is the annihilator of its perp, a tail.  A tail W's perp is the part of
    its annihilator that is finitely supported (S entry 0), a finite space.
    For a form, both pass through the musical map J on the window.
    """
    if context == GL_PAIRING:
        target = "V*" if w.space == "V" else "V"
    else:
        if not isinstance(context, StandardForm):
            raise DomainError(f"unknown perp context {context!r}")
        if w.space != "V":
            raise DomainError("form-orthogonal complements are taken inside V")
        target = "V"
        w = _odd_window(w)
    rows = w.small
    if w.has_tail:
        rows = _restrict(rows, [[Fraction(0)] * (w.window - 1) + [Fraction(1)]])
    if context != GL_PAIRING:
        rows = row_space_basis([_j_window(r[:-1], context.sign) + [Fraction(0)] for r in rows])
    return SubspaceDescriptor._of(target, w.window, rows, not w.has_tail)


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
    vecs = [list(r[:-1]) for r in w.small]
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
    rows = [list(r[:-1]) for r in _odd_window(w).small]

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
