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

A descriptor stores the small side of U as sparse reduced row echelon rows
over the columns 1..M (see `linalg`): a tail keeps the annihilator of U
(codim rows, each an eventually constant functional whose S entry is its
value on the whole tail), a finite space keeps the basis of U (dim rows).
Either way a row's S entry is its value at every index from M on, so
widening the window repeats that entry (`small_at`), and a descriptor
keeps the minimal window, so equal subspaces have equal rows.
Perp swaps the two sides.  Sum and intersection are one rule: an
intersection is a sum with the roles of the two sides swapped.  Containment
is that rule too: W' ⊆ W exactly when W ∩ W' equals W', and W is isotropic
under a form exactly when W ∩ W^perp equals W.

Perp is the annihilator under the gl pairing between V and V_*, or the
orthogonal space under a fixed split form on V for the so/sp cases; the
class is closed under perp, finite sum, and finite intersection.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import linalg
from .errors import DomainError, InternalConsistencyError
from .record import Record

# A finitely supported vector is a sparse row: coordinate i at key i.
Coords = linalg.Row


def vector(entries) -> Coords:
    """Normalize {index: value} data to a finitely supported vector."""
    out: Coords = {}
    for i, v in sorted(((linalg.basis_index(i), v) for i, v in dict(entries).items()), key=lambda iv: iv[0]):
        if i < 1:
            raise DomainError(f"basis indices start at 1, got {i}")
        v = linalg.rational(v)
        if v:
            out[i] = v
    return out


class EvConstFunctional(Record):
    """A functional with finitely many prescribed values and a constant tail.

    Canonical form drops trailing head entries equal to the tail.  The
    functional lies in the restricted dual exactly when the tail is 0.
    """

    head: tuple[Fraction, ...]
    tail: Fraction

    def __init__(self, head, tail):
        head = tuple(map(linalg.rational, head))
        tail = linalg.rational(tail)
        while head and head[-1] == tail:
            head = head[:-1]
        self.__dict__.update(head=head, tail=tail)

    def value_at(self, i: int) -> Fraction:
        return self.head[i - 1] if i <= len(self.head) else self.tail


ALL_ONES = EvConstFunctional((), Fraction(1))


def _restrict(rows, conditions) -> list[Coords]:
    """RREF rows spanning the x in rowspace(rows) with c . x = 0 for every condition c."""
    if not rows:
        return []
    values = [{j: x for j, r in enumerate(rows, 1) if (x := linalg.dot(c, r))} for c in conditions]
    return linalg.rref([linalg.lincomb(t, rows) for t in linalg.nullspace_basis(values, len(rows))])


def _meet(a, b) -> list[Coords]:
    """RREF rows spanning rowspace(a) ∩ rowspace(b): from each relation
    sum s_i a_i + sum t_j b_j = 0, the common vector sum s_i a_i."""
    if not a or not b:
        return []
    columns: dict[int, Coords] = {}
    for j, r in enumerate((*a, *b), 1):
        for c, x in r.items():
            columns.setdefault(c, {})[j] = x
    relations = linalg.nullspace_basis(list(columns.values()), len(a) + len(b))
    return linalg.rref([linalg.lincomb(t, a) for t in relations])


class SubspaceDescriptor(Record):
    """Canonical model of one descriptor subspace.

    Attributes:
        space: "V" or "V*".
        window: M; coordinates 1..M-1 explicit, the tail starts at M.
        small: sparse RREF rows over the columns 1..M.  With a tail, the
            annihilator of the model subspace U: x lies in W iff every row
            vanishes on mu(x).  Without, the basis of U (no S entry): x must
            live inside the window and in the row space.
        has_tail: infinite-dimensional iff True.

    The window is always minimal, so equal subspaces give equal records.
    The constructor takes a basis of U itself as dense rows of length M, as
    reports print it.
    """

    space: str
    window: int
    small: tuple[Coords, ...]
    has_tail: bool

    def __init__(self, space: str, window: int, rows, has_tail: bool):
        if (window := linalg.basis_index(window)) < 1:
            raise DomainError(f"window must be >= 1, got {window}")
        rows = [list(map(linalg.rational, r)) for r in rows]
        if any(len(r) != window or (r[-1] and not has_tail) for r in rows):
            raise DomainError(f"each row needs {window} entries (the window), and the rows "
                              "of a finite descriptor a zero tail entry")
        rows = [{c: x for c, x in enumerate(r, 1) if x} for r in rows]
        small = linalg.nullspace_basis(rows, window) if has_tail else linalg.rref(rows)
        self._store(space, window, small, has_tail)

    def _store(self, space, window, small, has_tail):
        """Store RREF small-side rows at the minimal window: explicit columns
        equal to the S column in every row are folded into the tail, which
        keeps the rows reduced."""
        if space not in ("V", "V*"):
            raise DomainError(f"space must be 'V' or 'V*', got {space!r}")
        cut = window - 1
        while cut > 0 and all(r.get(cut) == r.get(window) for r in small):
            cut -= 1
        small = tuple({min(c, cut + 1): x for c, x in r.items() if c <= cut or c == window} for r in small)
        self.__dict__.update(space=space, window=cut + 1, small=small, has_tail=has_tail)

    @staticmethod
    def _of(space, window, small, has_tail) -> "SubspaceDescriptor":
        out = SubspaceDescriptor.__new__(SubspaceDescriptor)
        out._store(space, window, small, has_tail)
        return out

    # -- construction -----------------------------------------------------

    @staticmethod
    def build(space="V", generators=(), tail_from=None, kernels=()) -> "SubspaceDescriptor":
        gens = [vector(g) for g in generators]
        kers = [
            k if isinstance(k, EvConstFunctional) else EvConstFunctional(tuple(k[0]), k[1])
            for k in kernels
        ]
        if tail_from is not None and (tail_from := linalg.basis_index(tail_from)) < 1:
            raise DomainError(f"tail_from must be >= 1, got {tail_from}")
        window = max(
            [tail_from or 1]
            + [max(g) + 1 for g in gens if g]
            + [len(k.head) + 1 for k in kers]
            + [1]
        )
        conditions = [{i: x for i in range(1, window + 1) if (x := k.value_at(i))} for k in kers]
        if tail_from is None:
            small = _restrict(gens, conditions)
        else:
            # span + tail is annihilated by the functionals on the head
            # 1..tail_from-1 that kill every generator; add the kernels.
            head = tail_from - 1
            lead = [{i: x for i, x in g.items() if i <= head} for g in gens]
            small = linalg.rref(linalg.nullspace_basis(lead, head) + conditions)
        return SubspaceDescriptor._of(space, window, small, tail_from is not None)

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

    def __hash__(self):
        return hash((self.space, self.window, tuple(frozenset(r.items()) for r in self.small),
                     self.has_tail))

    def __repr__(self):
        kind = "tail" if self.has_tail else "finite"
        rank = self.window - len(self.small) if self.has_tail else len(self.small)
        return f"SubspaceDescriptor({self.space}, window={self.window}, {kind}, rank={rank})"

    def small_at(self, window: int) -> tuple[Coords, ...]:
        """The stored rows over the columns 1..window, for a window >= M: a
        row's S entry is its value at every index from M on, so it repeats."""
        if window < self.window:
            raise DomainError("cannot shrink a window explicitly")
        widened = range(self.window + 1, window + 1)
        return tuple({**r, **dict.fromkeys(widened, r[self.window])} if self.window in r else r
                     for r in self.small)

    def basis(self, window: int | None = None) -> list[Coords]:
        """Sparse RREF basis of the model subspace U of Q^window (Q^M by
        default); a tail derives it from its annihilator."""
        window = self.window if window is None else window
        if self.has_tail:
            return linalg.nullspace_basis(self.small_at(window), window)
        return list(self.small_at(window))

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
        return self.contains_space(SubspaceDescriptor.span([vec], self.space))

    def contains_space(self, other: "SubspaceDescriptor") -> bool:
        if other.space != self.space:
            raise DomainError("space mismatch")
        return _combine(self, other, False) == other  # descriptors are canonical


def _combine(a: SubspaceDescriptor, b: SubspaceDescriptor, wide: bool) -> SubspaceDescriptor:
    """Sum (wide) or intersection of two descriptors of one space.

    A tail stores an annihilator and a finite space a basis, so a sum adds
    the rows of two finite operands and meets those of two tails, and an
    intersection does the reverse.  Mixed operands keep the rows of the one
    whose kind the result has, restricted by the other's rows.
    """
    if a.space != b.space:
        raise DomainError(f"cannot {'add' if wide else 'intersect'} subspaces of different spaces")
    m = max(a.window, b.window)
    x, y = a.small_at(m), b.small_at(m)
    has_tail = (a.has_tail or b.has_tail) if wide else (a.has_tail and b.has_tail)
    if a.has_tail != b.has_tail:
        keep, other = (x, y) if a.has_tail == has_tail else (y, x)
        small = _restrict(keep, other)
    elif a.has_tail != wide:
        small = linalg.rref([*x, *y])
    else:
        small = _meet(x, y)
    return SubspaceDescriptor._of(a.space, m, small, has_tail)


def descriptor_sum(a: SubspaceDescriptor, b: SubspaceDescriptor) -> SubspaceDescriptor:
    return _combine(a, b, True)


def descriptor_intersection(a: SubspaceDescriptor, b: SubspaceDescriptor) -> SubspaceDescriptor:
    return _combine(a, b, False)


# -- forms and perps ---------------------------------------------------------


class StandardForm(Record):
    """The split form pairing v_{2i-1} with v_{2i}: symmetric or symplectic."""

    kind: str

    def __init__(self, kind):
        if kind not in ("symmetric", "symplectic"):
            raise DomainError(f"form kind must be symmetric or symplectic, got {kind!r}")
        self.__dict__["kind"] = kind

    @property
    def sign(self) -> int:
        return 1 if self.kind == "symmetric" else -1

    def j(self, x: Coords) -> Coords:
        """The musical map: v_{2i-1} -> v_{2i} and v_{2i} -> sign * v_{2i-1},
        so that pairing(x, y) = dot(j(x), y)."""
        sign = self.sign
        return {c + 1 if c % 2 else c - 1: v if c % 2 else sign * v for c, v in x.items()}

    def pairing(self, x: Coords, y: Coords) -> Fraction:
        return linalg.dot(self.j(x), y)


GL_PAIRING = "gl"


def perp(w: SubspaceDescriptor, context=GL_PAIRING) -> SubspaceDescriptor:
    """Annihilator under the gl pairing, or orthogonal space under a form.

    gl: subspaces of V map to subspaces of V_* and back.  so/sp: subspaces
    of V map to subspaces of V.  The descriptor class is closed under both.
    Perp swaps the stored side.  A finite W's basis, read as functionals,
    is the annihilator of its perp, a tail.  A tail W's perp is the part of
    its annihilator that is finitely supported (S entry 0), a finite space.
    For a form, both pass through the musical map J on the window.
    """
    window = w.window
    if context == GL_PAIRING:
        target = "V*" if w.space == "V" else "V"
    else:
        if not isinstance(context, StandardForm):
            raise DomainError(f"unknown perp context {context!r}")
        if w.space != "V":
            raise DomainError("form-orthogonal complements are taken inside V")
        target = "V"
        if window % 2 == 0:  # J must not pair an explicit column with S
            window += 1
    rows = w.small_at(window)
    if w.has_tail:
        rows = _restrict(rows, [{window: Fraction(1)}])
    if context != GL_PAIRING:
        rows = linalg.rref([context.j(r) for r in rows])
    return SubspaceDescriptor._of(target, window, rows, not w.has_tail)


def double_perp_closed(w: SubspaceDescriptor, context=GL_PAIRING):
    """Whether W equals its double perp; on failure, a witness in the gap."""
    closure = perp(perp(w, context), context)
    return (True, None) if closure == w else (False, _gap_vector(closure, w))


def _gap_vector(larger: SubspaceDescriptor, smaller: SubspaceDescriptor) -> Coords:
    """A basis row of `larger` outside `smaller`; a basis row at window m is
    the vector with its S entry at coordinate m."""
    m = max(larger.window, smaller.window)
    for row in larger.basis(m):
        if not smaller.contains(row):
            return row
    raise InternalConsistencyError("double perp differs but no witness row found")


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


class Verdict(Record):
    algebra: str                      # gl | sl | so | sp
    tag: str                          # case tag or "NotMaximal"
    maximal: bool
    description: str
    subspace: SubspaceDescriptor | None = None
    perp_space: SubspaceDescriptor | None = None
    witness: SubspaceDescriptor | None = None
    witness_vector: tuple[tuple[int, Fraction], ...] | None = None


def _verdict(g_kind, tag, w=None, p=None, text=None, witness=None, gap=None) -> Verdict:
    """The one maker of a verdict: the tag decides `maximal`, and the case
    summary is the description unless `text` is given."""
    return Verdict(g_kind, tag, tag != "NotMaximal", text or CASE_SUMMARY[tag], w, p, witness,
                   None if gap is None else tuple(sorted(gap.items())))


def classify_maximal(g_kind: str, w, form: StandardForm | None = None) -> Verdict:
    """Classify Stab(W) inside gl/sl/so/sp; returns the matching case tag or
    NotMaximal with an explicit witness object.  W is a SubspaceDescriptor or
    a token (COMMUTATOR_TOKEN for gl, a FORM_TOKENS key for sl).  so and sp
    use the split symmetric and symplectic form: `form` is None or that form,
    and for gl and sl it is None; anything else is a DomainError."""
    if g_kind not in ("gl", "sl", "so", "sp"):
        raise DomainError(f"unknown algebra kind {g_kind!r}")
    split = StandardForm(FORM_TOKENS[f"{g_kind}_form"]) if g_kind in ("so", "sp") else None
    if form is not None and form != split:
        raise DomainError(f"{g_kind}(V) requires the {split.kind} form" if split
                          else f"{g_kind}(V) takes no form")

    if isinstance(w, str):
        if g_kind == "gl" and w == COMMUTATOR_TOKEN:
            return _verdict("gl", "ia")
        if g_kind == "sl" and w in FORM_TOKENS:
            return _verdict("sl", "iia", text=f"{CASE_SUMMARY['iia']} ({FORM_TOKENS[w]})")
        raise DomainError(f"token {w!r} has no meaning for {g_kind}")
    if not isinstance(w, SubspaceDescriptor):
        raise DomainError("expected a SubspaceDescriptor or a recognized token")

    if w.is_zero() or w.is_full():
        raise DomainError("the zero and full subspaces have the whole algebra as stabilizer; "
                          "classification needs a proper non-zero subspace")
    return _classify_form(g_kind, w, split) if split else _classify_gl_sl(g_kind, w)


def _classify_gl_sl(g_kind: str, w: SubspaceDescriptor) -> Verdict:
    p = perp(w)
    closure = perp(p)
    tag_b, tag_c = ("ib", "ic") if g_kind == "gl" else ("iib", "iic")
    if closure == w:
        return _verdict(g_kind, tag_c, w, p)
    if w.codim == 1 and p.is_zero():
        return _verdict(g_kind, tag_b, w, p)
    if closure.is_full():
        raise InternalConsistencyError("dense non-closed descriptor of codimension >= 2; "
                                       "unreachable in this class")
    return _verdict(g_kind, "NotMaximal", w, p,
                    "the double perp is a strictly larger proper subspace with a strictly "
                    "larger stabilizer", witness=closure, gap=_gap_vector(closure, w))


def _isotropic_line(w: SubspaceDescriptor, form: StandardForm):
    """A rational isotropic line inside a 2-dimensional nondegenerate W, if any."""
    b = form.pairing
    a, c = w.small
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
        line = linalg.lincomb({1: Fraction(1), 2: t}, (a, c))
    return SubspaceDescriptor.span([line])


def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    root = Fraction(isqrt(q.numerator), isqrt(q.denominator))
    return root if root * root == q else None


def _classify_form(g_kind: str, w: SubspaceDescriptor, form: StandardForm) -> Verdict:
    p = perp(w, form)
    core = descriptor_intersection(w, p)
    if core == w:  # W is isotropic
        if perp(p, form) != w:
            raise InternalConsistencyError("isotropic descriptors are finite, hence closed")
        return _verdict(g_kind, "iiic", w, p)
    if not core.is_zero():
        return _verdict(g_kind, "NotMaximal", w, p,
                        "W is degenerate: its stabilizer preserves the isotropic core W ∩ W^perp, "
                        "whose stabilizer is strictly larger", witness=core)
    if p.is_zero():
        if w.codim != 1:
            raise InternalConsistencyError("zero perp forces codimension 1 in the descriptor class")
        return _verdict(g_kind, "iiib", w, p)
    total = descriptor_sum(w, p)
    if not total.is_full():
        return _verdict(g_kind, "NotMaximal", w, p,
                        "W ⊕ W^perp is a proper subspace; its stabilizer strictly contains Stab W",
                        witness=total)
    if g_kind == "so" and 2 in (w.dim, p.dim):
        return _verdict(g_kind, "NotMaximal", w, p,
                        "a nondegenerate plane summand of a split symmetric form contains "
                        "isotropic lines fixed by its rank-1 orthogonal algebra; the "
                        "stabilizer of such a line is strictly larger",
                        witness=_isotropic_line(w if w.dim == 2 else p, form))
    return _verdict(g_kind, "iiia", w, p)
