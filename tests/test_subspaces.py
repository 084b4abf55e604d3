import json
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from conftest import run_cli
from lielimits import formats, linalg, subspaces
from lielimits.algebras import SimpleAlgebra
from lielimits.errors import DimensionMismatchError, DomainError, InternalConsistencyError, ParseError
from lielimits.index import ModuleDecomposition, SemisimpleAlgebra, Summand, decomposition
from lielimits.subspaces import (
    ALL_ONES,
    COMMUTATOR_TOKEN,
    EvConstFunctional,
    FORM_TOKENS,
    StandardForm,
    SubspaceDescriptor,
    _isotropic_line,
    _rational_sqrt,
    classify_maximal,
    descriptor_intersection,
    descriptor_sum,
    double_perp_closed,
    perp,
    vector,
)
from lielimits.system import compute_labels
from ref_index import restrict_to_factor
from ref_linalg import in_row_space, nullspace_basis, row_space_basis

SYM = StandardForm("symmetric")
SYMP = StandardForm("symplectic")


def is_isotropic(w: SubspaceDescriptor, form: StandardForm) -> bool:
    """Reference: the form vanishes identically on W, that is W ⊆ W^perp.  A
    tail's perp is finite, so tail descriptors are never isotropic."""
    if w.space != "V":
        raise DomainError("isotropy is a property of subspaces of V")
    return perp(w, form).contains_space(w)


def rand_params(rng):
    """Random (generators, tail_from, kernels) arguments of `build`."""
    gens = []
    for _ in range(rng.randrange(0, 3)):
        gens.append(
            {rng.randrange(1, 8): Fraction(rng.randrange(-3, 4) or 1) for _ in range(rng.randrange(1, 4))}
        )
    tail = rng.choice([None, None, rng.randrange(1, 6)])
    kers = []
    for _ in range(rng.randrange(0, 3)):
        head = tuple(Fraction(rng.randrange(-2, 3)) for _ in range(rng.randrange(0, 4)))
        kers.append(EvConstFunctional(head, Fraction(rng.choice([0, 0, 1, 2, -1]))))
    return gens, tail, kers


def rand_descriptor(rng, space="V"):
    return SubspaceDescriptor.build(space, *rand_params(rng))


# -- the big-side reference ----------------------------------------------------
#
# The library stores the small side of the model subspace U of Q^M (the
# annihilator of a tail, the basis of a finite space).  The reference below
# stores U itself, as RREF rows, and computes every operation on those rows
# by plain elimination.  It is slow (cubic in the window) and independent of
# the small-side formulas.


class Ref(NamedTuple):
    space: str
    window: int
    rows: tuple
    has_tail: bool


def _zero_vec(n):
    return [Fraction(0)] * n


def ref_canonical(space, window, rows, has_tail) -> Ref:
    """RREF rows of U, shrunk to the minimal window."""
    rows = [list(r) for r in row_space_basis([list(r) for r in rows])]
    assert has_tail or all(r[-1] == 0 for r in rows)
    while window > 1:
        if has_tail:
            probe = _zero_vec(window)
            probe[window - 2], probe[window - 1] = Fraction(1), Fraction(-1)
            if not in_row_space(probe, rows):
                break
            rows = row_space_basis([r[: window - 2] + [r[window - 2] + r[window - 1]] for r in rows])
        else:
            if any(r[window - 2] != 0 for r in rows):
                break
            rows = row_space_basis([r[: window - 2] + [r[window - 1]] for r in rows])
        window -= 1
    return Ref(space, window, tuple(tuple(r) for r in rows), has_tail)


def ref_build(space, generators, tail_from, kernels) -> Ref:
    """Span of generators and tail in Q^M, then the kernel conditions."""
    gens = [dict(g) for g in generators]
    window = max(
        [tail_from or 1]
        + [max(g) + 1 for g in gens if g]
        + [len(k.head) + 1 for k in kernels]
        + [1]
    )
    span = [[Fraction(g.get(i, 0)) for i in range(1, window)] + [Fraction(0)] for g in gens]
    if tail_from is not None:
        for i in range(tail_from, window + 1):
            row = _zero_vec(window)
            row[i - 1] = Fraction(1)
            span.append(row)
    basis = row_space_basis(span)
    if kernels:
        conditions = [
            [sum((c * b for c, b in zip([k.value_at(i) for i in range(1, window)] + [k.tail], row)),
                 Fraction(0)) for row in basis]
            for k in kernels
        ]
        basis = [
            [sum((t * row[c] for t, row in zip(sol, basis)), Fraction(0)) for c in range(window)]
            for sol in nullspace_basis(conditions, len(basis))
        ]
    return ref_canonical(space, window, basis, tail_from is not None)


def ref_at_window(w: Ref, window: int) -> Ref:
    rows = [list(r) for r in w.rows]
    for m in range(w.window, window):
        if w.has_tail:
            rows = [r[:-1] + [r[-1], Fraction(0)] for r in rows]
            extra = _zero_vec(m + 1)
            extra[m - 1], extra[m] = Fraction(1), Fraction(-1)
            rows.append(extra)
        else:
            rows = [r[:-1] + [Fraction(0), r[-1]] for r in rows]
    return Ref(w.space, window, tuple(tuple(r) for r in row_space_basis(rows)), w.has_tail)


def ref_aligned(a: Ref, b: Ref):
    m = max(a.window, b.window)
    return ref_at_window(a, m), ref_at_window(b, m), m


def ref_sum(a: Ref, b: Ref) -> Ref:
    a, b, m = ref_aligned(a, b)
    return ref_canonical(a.space, m, a.rows + b.rows, a.has_tail or b.has_tail)


def ref_intersection(a: Ref, b: Ref) -> Ref:
    a, b, m = ref_aligned(a, b)
    conditions = nullspace_basis([list(r) for r in a.rows], m) + nullspace_basis(
        [list(r) for r in b.rows], m
    )
    return ref_canonical(a.space, m, nullspace_basis(conditions, m), a.has_tail and b.has_tail)


def ref_contains_space(a: Ref, b: Ref) -> bool:
    if b.has_tail and not a.has_tail:
        return False
    a, b, _ = ref_aligned(a, b)
    return all(in_row_space(list(r), [list(x) for x in a.rows]) for r in b.rows)


def _apply_j(row, form):
    out = list(row)
    sign = form.sign
    for i in range(0, len(out) - 1, 2):
        out[i], out[i + 1] = sign * row[i + 1], row[i]
    return out


def ref_perp(w: Ref, context) -> Ref:
    """Nullspace of the window part of the rows (through J for a form); a
    finite W's perp also gains the S row."""
    if context == "gl":
        target = "V*" if w.space == "V" else "V"
        conditions = [list(r[:-1]) for r in w.rows]
    else:
        target = "V"
        if w.window % 2 == 0:
            w = ref_at_window(w, w.window + 1)
        conditions = [_apply_j(r[:-1], context) for r in w.rows]
    rows = [r + [Fraction(0)] for r in nullspace_basis(conditions, w.window - 1)]
    if not w.has_tail:
        rows.append(_zero_vec(w.window - 1) + [Fraction(1)])
    return ref_canonical(target, w.window, rows, not w.has_tail)


def rows_at(w: SubspaceDescriptor, window: int | None = None) -> tuple:
    """The basis of U as dense rows, at w.window or a wider window, as reports print it."""
    window = window or w.window
    return tuple(tuple(r.get(c, Fraction(0)) for c in range(1, window + 1)) for r in w.basis(window))


def assert_matches(w: SubspaceDescriptor, ref: Ref):
    assert (w.space, w.window, rows_at(w), w.has_tail) == tuple(ref), (w, ref)
    size = len(ref.rows)
    assert (w.dim, w.codim) == ((None, ref.window - size) if ref.has_tail else (size, None))


def test_functional_canonical_form():
    f = EvConstFunctional((1, 2, 1, 1), 1)
    assert f.head == (1, 2)
    assert f.value_at(2) == 2 and f.value_at(3) == 1 and f.value_at(100) == 1

    def apply(g, vec):
        return sum(c * g.value_at(i) for i, c in vec.items())

    assert apply(f, {1: 1, 5: 2}) == 3
    assert apply(ALL_ONES, {2: 5, 9: -5}) == 0


def test_membership_examples():
    t2 = SubspaceDescriptor.tail(2)
    assert t2.contains({2: 1}) and t2.contains({5: 3, 7: -1})
    assert not t2.contains({1: 1, 2: 1})
    k = SubspaceDescriptor.kernel([ALL_ONES])
    assert k.contains({1: 1, 2: -1}) and not k.contains({1: 1})
    w = SubspaceDescriptor.span([{1: 1, 2: 2}])
    assert w.contains({1: 2, 2: 4}) and not w.contains({1: 1})


def test_canonical_equality_of_presentations():
    direct = SubspaceDescriptor.tail(2)
    assembled = SubspaceDescriptor.build("V", generators=[{2: 1}], tail_from=3)
    assert direct == assembled
    # a kernel condition that is implied by the data normalizes away
    redundant = SubspaceDescriptor.build(
        "V", tail_from=2, kernels=[EvConstFunctional((1,), 0)]
    )
    assert redundant == direct


def test_dims_and_codims():
    assert SubspaceDescriptor.build("V").dim == 0
    assert SubspaceDescriptor.build("V", tail_from=1).codim == 0
    assert SubspaceDescriptor.tail(3).codim == 2
    assert SubspaceDescriptor.span([{1: 1}, {4: 1}]).dim == 2
    k = SubspaceDescriptor.kernel([ALL_ONES])
    assert k.codim == 1 and k.dim is None


def test_perp_examples():
    # tail perp is the finite coordinate span on the dual side
    p = perp(SubspaceDescriptor.tail(2))
    assert p == SubspaceDescriptor.span([{1: 1}], space="V*")
    # the all-ones kernel annihilates nothing in the restricted dual
    assert perp(SubspaceDescriptor.kernel([ALL_ONES])).is_zero()
    # symplectic perp of the first coordinate line kills the second coordinate
    w = SubspaceDescriptor.span([{1: 1}])
    expected = SubspaceDescriptor.build(
        "V", tail_from=1, kernels=[EvConstFunctional((0, 1), 0)]
    )
    assert perp(w, SYMP) == expected
    assert perp(w, SYM) == expected


def test_double_perp_examples():
    ok, witness = double_perp_closed(SubspaceDescriptor.tail(2))
    assert ok and witness is None
    ok, witness = double_perp_closed(SubspaceDescriptor.kernel([ALL_ONES]))
    assert not ok and witness is not None
    assert not SubspaceDescriptor.kernel([ALL_ONES]).contains(witness)
    ok, _ = double_perp_closed(SubspaceDescriptor.build("V"))
    assert ok


def test_sum_and_intersection():
    t3 = SubspaceDescriptor.tail(3)
    v2 = SubspaceDescriptor.span([{2: 1}])
    s = descriptor_sum(t3, v2)
    assert s == SubspaceDescriptor.tail(2)
    meet = descriptor_intersection(SubspaceDescriptor.tail(2), SubspaceDescriptor.kernel([ALL_ONES]))
    assert meet.contains({2: 1, 3: -1}) and not meet.contains({2: 1})
    with pytest.raises(DomainError):
        descriptor_sum(t3, SubspaceDescriptor.span([{1: 1}], space="V*"))


def test_galois_properties(rng):
    for _ in range(200):
        space = rng.choice(["V", "V*"])
        w = rand_descriptor(rng, space)
        contexts = ["gl"] if space == "V*" else ["gl", SYM, SYMP]
        for ctx in contexts:
            p = perp(w, ctx)
            closure = perp(p, ctx)
            assert closure.contains_space(w)
            assert perp(closure, ctx) == p
            # perp is inclusion-reversing against a random enlargement
            bigger = descriptor_sum(w, rand_descriptor(rng, space))
            assert p.contains_space(perp(bigger, ctx))


def test_perp_matches_truncated_elimination(rng):
    # On the window of explicit coordinates, the descriptor perp agrees with
    # plain linear algebra against the projected subspace.
    for _ in range(50):
        w = rand_descriptor(rng, "V")
        p = perp(w)
        m = max(w.window, p.window) + 2
        proj = [list(r[:-1]) for r in rows_at(w, m)]
        if w.has_tail:
            for i in range(w.window - 1, m - 1):
                row = [Fraction(0)] * (m - 1)
                row[i] = Fraction(1)
                proj.append(row)
        proj = row_space_basis(proj)
        p_rows = rows_at(p, m)
        for prow in p_rows:
            assert all(
                sum(a * b for a, b in zip(prow[:-1], wrow)) == 0 for wrow in proj
            )
        assert len(p_rows) + len(proj) == (m - 1) + (1 if p.has_tail else 0)


def _box_basis(w, s):
    """Basis of W ∩ span{v_1..v_s} as explicit coordinate rows."""
    rows = [list(r) for r in rows_at(w, s + 1)]
    if w.has_tail:
        # model vectors with vanishing tail mass, written out in coordinates
        coeffs = nullspace_basis([[row[-1] for row in rows]], len(rows))
        sols = [
            [sum(c * row[i] for c, row in zip(combo, rows)) for i in range(s)]
            for combo in coeffs
        ]
        return row_space_basis(sols)
    return row_space_basis([row[:-1] for row in rows])


def _brute_perp_box(spanning, s, form):
    """Nullspace of the pairing against explicit spanning vectors in Q^s."""
    conditions = []
    for vec in spanning:
        if form is None:
            conditions.append(list(vec[:s]))
        else:
            padded = list(vec) + [Fraction(0)] * ((len(vec) + 1) % 2)
            conditions.append(_apply_j(padded, form)[:s])
    return row_space_basis(nullspace_basis(conditions, s))


def test_perp_matches_bruteforce_box(rng):
    # Independent oracle: realize W inside a finite coordinate box, compute
    # the annihilator by plain elimination, and compare with the descriptor
    # perp restricted to the same box.
    for _ in range(60):
        w = rand_descriptor(rng, "V")
        for form in (None, SYM, SYMP):
            p = perp(w, "gl" if form is None else form)
            s = max(w.window, p.window) + 3
            s += s % 2  # close the box under the pairing
            spanning = _box_basis(w, s + 2)
            spanning = [row[: s + 2] for row in spanning]
            brute = _brute_perp_box(spanning, s, form)
            descriptor_box = _box_basis(p, s)
            assert row_space_basis([list(r) for r in brute]) == row_space_basis(
                [list(r) for r in descriptor_box]
            ), (w, form)


def test_isotropic_vs_truncated_gram(rng):
    for _ in range(60):
        vecs = [
            {rng.randrange(1, 7): Fraction(rng.randrange(-2, 3) or 1) for _ in range(rng.randrange(1, 3))}
            for _ in range(rng.randrange(1, 3))
        ]
        w = SubspaceDescriptor.span(vecs)
        for form in (SYM, SYMP):
            direct = is_isotropic(w, form)
            gram_zero = all(
                form.pairing(x, y) == 0 for x in vecs for y in vecs
            )
            assert direct == gram_zero
    assert not is_isotropic(SubspaceDescriptor.tail(3), SYM)


def test_classification_case_table():
    t2 = SubspaceDescriptor.tail(2)
    kernel = SubspaceDescriptor.kernel([ALL_ONES])
    assert classify_maximal("gl", COMMUTATOR_TOKEN).tag == "ia"
    assert classify_maximal("gl", kernel).tag == "ib"
    assert classify_maximal("gl", t2).tag == "ic"
    assert classify_maximal("sl", "so_form").tag == "iia"
    assert classify_maximal("sl", "sp_form").tag == "iia"
    assert classify_maximal("sl", kernel).tag == "iib"
    assert classify_maximal("sl", t2).tag == "iic"
    assert classify_maximal("so", SubspaceDescriptor.tail(5), SYM).tag == "iiia"
    assert classify_maximal("sp", SubspaceDescriptor.tail(3), SYMP).tag == "iiia"
    assert classify_maximal("so", SubspaceDescriptor.kernel([ALL_ONES]), SYM).tag == "iiib"
    assert classify_maximal("sp", SubspaceDescriptor.kernel([ALL_ONES]), SYMP).tag == "iiib"
    assert classify_maximal("so", SubspaceDescriptor.span([{1: 1}]), SYM).tag == "iiic"
    assert classify_maximal("sp", SubspaceDescriptor.span([{1: 1}]), SYMP).tag == "iiic"
    # on every subspace fixture: the tag decides `maximal`, and so and sp
    # without a form take the split one of their kind
    fixtures = sorted(formats.fixture_path("s1.json").parent.glob("*.json"))
    payloads = [formats.subspace_input_from_doc(doc) for doc in map(formats.load_json, fixtures)
                if doc["format"] == formats.SUBSPACE_FORMAT]
    forms = {"gl": None, "sl": None, "so": SYM, "sp": SYMP}
    outcomes = []
    for w in payloads:
        for kind, form in forms.items():
            outcome = _verdict_or_error(kind, w)
            assert outcome == _verdict_or_error(kind, w, form)
            if isinstance(outcome, subspaces.Verdict):
                assert outcome.maximal == (outcome.tag != "NotMaximal")
                outcomes.append(outcome.tag)
    assert len(payloads) == 12 and len(outcomes) == 37 and "NotMaximal" in outcomes


def _verdict_or_error(*call):
    try:
        return classify_maximal(*call)
    except DomainError as exc:
        return str(exc)


def test_descriptor_rebuilt_at_a_wider_window_is_the_same_record(rng):
    # the constructor folds a widened basis back to the minimal window
    examples = [SubspaceDescriptor.tail(3), SubspaceDescriptor.span([{1: 1}]),
                SubspaceDescriptor.kernel([ALL_ONES], "V*")]
    examples += [rand_descriptor(rng, rng.choice(["V", "V*"])) for _ in range(100)]
    for w in examples:
        for wider in (w.window, w.window + 1, w.window + 4):
            rebuilt = SubspaceDescriptor(w.space, wider, rows_at(w, wider), w.has_tail)
            assert rebuilt == w and hash(rebuilt) == hash(w) and repr(rebuilt) == repr(w)
    verdict = classify_maximal("gl", SubspaceDescriptor("V", 5, rows_at(examples[0], 5), True))
    assert verdict.tag == "ic" and verdict.subspace == examples[0]


def test_descriptor_fields_cannot_be_assigned():
    a, b = SubspaceDescriptor.tail(3), SubspaceDescriptor.tail(3)
    held = {a}
    for name, value in (("window", 7), ("small", ()), ("has_tail", False), ("space", "V*")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(a, name, value)
    assert a == b and b in held and repr(a) == "SubspaceDescriptor(V, window=3, tail, rank=1)"


def test_dual_side_kernel_is_ib():
    kernel_dual = SubspaceDescriptor.kernel([ALL_ONES], space="V*")
    verdict = classify_maximal("gl", kernel_dual)
    assert verdict.tag == "ib" and verdict.maximal


def test_not_maximal_cases():
    codim2 = SubspaceDescriptor.kernel([ALL_ONES, EvConstFunctional((2,), 1)])
    v = classify_maximal("gl", codim2)
    assert v.tag == "NotMaximal"
    assert v.witness is not None and v.witness.codim == 1
    assert v.witness.contains_space(codim2)
    assert v.witness_vector is not None

    plane = SubspaceDescriptor.span([{1: 1}, {2: 1}])
    v = classify_maximal("so", plane, SYM)
    assert v.tag == "NotMaximal"
    assert v.witness is not None and v.witness.dim == 1
    assert is_isotropic(v.witness, SYM)
    # the same plane is fine symplectically
    assert classify_maximal("sp", plane, SYMP).tag == "iiia"

    # neither spanning vector is isotropic; the discriminant of the quadratic
    # in t for the line a + t*c is 36, so the isotropic line is rational
    plane = SubspaceDescriptor.span([{1: 1, 3: 1, 4: 1}, {2: 1, 3: 2, 4: 2}])
    v = classify_maximal("so", plane, SYM)
    assert v.tag == "NotMaximal"
    assert v.witness is not None and v.witness.dim == 1
    assert is_isotropic(v.witness, SYM)

    open_w = descriptor_intersection(
        SubspaceDescriptor.tail(2), SubspaceDescriptor.kernel([ALL_ONES])
    )
    v = classify_maximal("gl", open_w)
    assert v.tag == "NotMaximal"
    assert v.witness == SubspaceDescriptor.tail(2)

    # so with a 2-dimensional perp is excluded as well
    v = classify_maximal("so", SubspaceDescriptor.tail(3), SYM)
    assert v.tag == "NotMaximal"

    # degenerate, non-isotropic subspace
    v = classify_maximal("so", SubspaceDescriptor.span([{1: 1}, {2: 1}, {3: 1}]), SYM)
    assert v.tag == "NotMaximal"
    assert v.witness == SubspaceDescriptor.span([{3: 1}])


def test_classification_domain_errors():
    with pytest.raises(DomainError):
        classify_maximal("gl", SubspaceDescriptor.build("V"))
    with pytest.raises(DomainError):
        classify_maximal("gl", SubspaceDescriptor.build("V", tail_from=1))
    with pytest.raises(DomainError):
        classify_maximal("sl", COMMUTATOR_TOKEN)
    with pytest.raises(DomainError):
        classify_maximal("gl", "so_form")
    assert classify_maximal("so", SubspaceDescriptor.tail(5)) == classify_maximal(
        "so", SubspaceDescriptor.tail(5), SYM)
    with pytest.raises(DomainError):
        classify_maximal("so", SubspaceDescriptor.tail(5), SYMP)
    # a form is None or the split form of the kind; gl and sl take none
    for kind, w, form, message in (
        ("so", SubspaceDescriptor.tail(5), "symmetric", r"^so\(V\) requires the symmetric form$"),
        ("sp", SubspaceDescriptor.tail(5), object(), r"^sp\(V\) requires the symplectic form$"),
        ("gl", SubspaceDescriptor.tail(5), SYM, r"^gl\(V\) takes no form$"),
        ("sl", SubspaceDescriptor.tail(5), SYMP, r"^sl\(V\) takes no form$"),
        ("gl", COMMUTATOR_TOKEN, SYM, r"^gl\(V\) takes no form$"),
        ("sl", "so_form", "symmetric", r"^sl\(V\) takes no form$"),
    ):
        with pytest.raises(DomainError, match=message):
            classify_maximal(kind, w, form)
    assert classify_maximal("sp", SubspaceDescriptor.tail(5), SYMP) == classify_maximal(
        "sp", SubspaceDescriptor.tail(5))


_LINE = SubspaceDescriptor.span([{1: 1}])
_HUGE = r"^bad rational '1e1000000': its exponent is larger than 4300, the limit on int digits$"
_DUAL_LINE = SubspaceDescriptor.span([{1: 1}], "V*")


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: vector({0: 1}), DomainError, "basis indices start at 1"),
        (lambda: SubspaceDescriptor("V", 2, [[0, 1]], False), DomainError, "zero tail entry"),
        (lambda: SubspaceDescriptor("V", 2, [[0, 0, 1]], False), DomainError, "needs 2 entries"),
        (lambda: SubspaceDescriptor("W", 1, [], False), DomainError, "space must be"),
        (lambda: SubspaceDescriptor.build(tail_from=0), DomainError, "tail_from must be >= 1"),
        (lambda: SubspaceDescriptor.span([{3: 1}]).small_at(2), DomainError, "cannot shrink"),
        (lambda: _LINE.contains_space(_DUAL_LINE), DomainError, "space mismatch"),
        (lambda: StandardForm("x"), DomainError, "form kind must be"),
        (lambda: perp(_LINE, "bogus"), DomainError, "unknown perp context"),
        (lambda: perp(_DUAL_LINE, SYM), DomainError, "taken inside V"),
        (lambda: is_isotropic(_DUAL_LINE, SYM), DomainError, "isotropy is a property"),
        (lambda: classify_maximal("xx", _LINE), DomainError, "unknown algebra kind"),
        (lambda: classify_maximal("gl", 42), DomainError, "expected a SubspaceDescriptor"),
        (lambda: classify_maximal("sp", _LINE, SYM), DomainError, r"^sp\(V\) requires the symplectic form$"),
        (lambda: classify_maximal("so", _LINE, SYMP), DomainError, r"^so\(V\) requires the symmetric form$"),
        (
            lambda: ModuleDecomposition(
                SemisimpleAlgebra((SimpleAlgebra("A", 1),)), (Summand(((1,), (0,))),)
            ),
            DimensionMismatchError,
            "summand has 2 weights for 1 factors",
        ),
        (lambda: SemisimpleAlgebra(()), DomainError, "needs at least one simple factor"),
        (lambda: SemisimpleAlgebra(iter(())), DomainError, "needs at least one simple factor"),
        (lambda: compute_labels([], []), DomainError, "a system needs at least one level"),
        (
            lambda: decomposition([SimpleAlgebra("A", 1)], ["x"]),
            DomainError,
            "cannot read summand record 'x'",
        ),
        (lambda: Summand(((1,),), 1.5), DomainError, "multiplicity must be an integer >= 1"),
        (
            lambda: decomposition([SimpleAlgebra("A", 1)], [(((1,),), True)]),
            DomainError,
            "multiplicity must be an integer >= 1, got True",
        ),
        (
            lambda: decomposition([SimpleAlgebra("A", 1)], [42]),
            DomainError,
            "cannot read summand record 42",
        ),
        (
            lambda: decomposition([SimpleAlgebra("A", 1)] * 2, [((1,), (0,))]),
            DomainError,
            "multiplicity must be an integer >= 1",
        ),
        (
            lambda: restrict_to_factor(decomposition([SimpleAlgebra("A", 1)], [(((1,),), 1)]), 1),
            DomainError,
            r"^factor 1 out of range for A1$",
        ),
        (lambda: SimpleAlgebra("X", 1), DomainError, "unknown series 'X'"),
        (lambda: formats.fixture_path("nope.json"), ParseError, "no shipped fixture named 'nope.json'"),
        # a library rational is read as a document's is: a bad one, or a decimal exponent
        # past the digit limit, is refused before Fraction builds the power
        (lambda: vector({1: "x"}), DomainError, r"^bad rational 'x'$"),
        (lambda: SubspaceDescriptor.build(generators=[{1: "1e1000000"}]), DomainError, _HUGE),
        (lambda: SubspaceDescriptor.build(tail_from=1, kernels=[(("1e1000000",), 0)]), DomainError,
         _HUGE),
        (lambda: SubspaceDescriptor("V", 1, [["1e1000000"]], True), DomainError, _HUGE),
    ],
    ids=[
        "vector-index-0", "finite-tail-entry", "row-length", "space-W", "tail-from-0",
        "shrink-window", "contains-across-spaces", "form-kind", "perp-context", "form-perp-of-dual",
        "isotropy-of-dual", "algebra-kind", "not-a-descriptor", "sp-symmetric-form", "so-symplectic-form",
        "summand-weight-count", "semisimple-no-factors", "semisimple-empty-iterator",
        "system-no-levels",
        "unreadable-summand-record", "fractional-multiplicity", "bool-multiplicity",
        "record-without-length", "bare-weights-record", "restrict-past-last-factor",
        "unknown-series", "unknown-fixture", "vector-bad-rational", "huge-exponent-generator",
        "huge-exponent-kernel-head", "huge-exponent-report-row",
    ],
)
def test_public_api_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_cases_mutually_exclusive_and_exhaustive(rng):
    gl_tags = {"ib", "ic", "NotMaximal"}
    form_tags = {"iiia", "iiib", "iiic", "NotMaximal"}
    seen = set()
    for _ in range(150):
        w = rand_descriptor(rng, "V")
        if w.is_zero() or w.is_full():
            continue
        tag = classify_maximal("gl", w).tag
        assert tag in gl_tags
        seen.add(tag)
        for kind, form in (("so", SYM), ("sp", SYMP)):
            tag = classify_maximal(kind, w, form).tag
            assert tag in form_tags
            seen.add(tag)
    assert {"ib", "ic", "NotMaximal", "iiic"} <= seen


def test_uniqueness_checks():
    # equal subspaces give equal verdicts, whatever the description
    t2 = SubspaceDescriptor.tail(2)
    rebuilt = SubspaceDescriptor.build("V", generators=[{2: 1}, {3: 1}], tail_from=4)
    assert classify_maximal("gl", t2) == classify_maximal("gl", rebuilt)
    assert len({t2, SubspaceDescriptor.build("V", tail_from=2)}) == 1

    # (iiia): the pair {W, W-perp} is the same set from either side
    w = SubspaceDescriptor.tail(5)
    v1 = classify_maximal("so", w, SYM)
    v2 = classify_maximal("so", v1.perp_space, SYM)
    assert v1.tag == v2.tag == "iiia"
    assert {v1.subspace, v1.perp_space} == {v2.subspace, v2.perp_space}

    # distinct codimension-1 kernels: same case, different subspaces, and a
    # basis vector of one lies outside the other
    k1 = classify_maximal("gl", SubspaceDescriptor.kernel([ALL_ONES]))
    k2 = classify_maximal("gl", SubspaceDescriptor.kernel([EvConstFunctional((2,), 1)]))
    assert k1.tag == k2.tag and k1.subspace != k2.subspace
    m = max(k1.subspace.window, k2.subspace.window)
    assert any(not k2.subspace.contains(row) for row in k1.subspace.basis(m))


def test_uniqueness_of_token_cases_and_algebra_kind():
    commutator = classify_maximal("gl", COMMUTATOR_TOKEN)
    assert (commutator.algebra, commutator.tag, commutator.maximal) == ("gl", "ia", True)
    forms = [classify_maximal("sl", token) for token in FORM_TOKENS]
    assert [(v.algebra, v.tag, v.maximal) for v in forms] == [("sl", "iia", True)] * 2


# span{e1 + e2, e3 + e4} under the split symmetric form: each spanning vector
# pairs to 2 with itself and to 0 with the other, so a + t c is isotropic
# only where 2 t^2 + 2 = 0, and the plane has no isotropic line over Q.
ANISOTROPIC_PLANE = [{1: 1, 2: 1}, {3: 1, 4: 1}]


def test_no_rational_root():
    assert _rational_sqrt(Fraction(-4)) is None
    assert _rational_sqrt(Fraction(2)) is None and _rational_sqrt(Fraction(2, 9)) is None
    assert _rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert _isotropic_line(SubspaceDescriptor.span(ANISOTROPIC_PLANE), SYM) is None


def _subspace_file(tmp_path, **fields):
    path = tmp_path / "subspace.json"
    doc = {"format": formats.SUBSPACE_FORMAT, **fields}
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_anisotropic_plane_is_not_maximal(tmp_path):
    generators = [{str(i): str(x) for i, x in v.items()} for v in ANISOTROPIC_PLANE]
    path = _subspace_file(tmp_path, generators=generators)
    code, out, err = run_cli("--format", "json", "maximal", "so", path)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["tag"], report["maximal"]) == ("NotMaximal", False)


# -- guards that no valid input reaches, fired by a wrong perp ----------------

_REAL_PERP = perp


def _perp_of_nothing(w, context="gl"):
    """gl: every W has zero perp, so every double perp is the whole space."""
    return SubspaceDescriptor.build("V*") if w.space == "V" else SubspaceDescriptor.build("V", tail_from=1)


def _lost_closure(w, context="gl"):
    """The true perp of a finite W, but a tail W's perp is lost."""
    return SubspaceDescriptor.build("V") if w.has_tail else _REAL_PERP(w, context)


@pytest.mark.parametrize(
    "kind,fields,tag,fake,message",
    [
        ("gl", {"tail_from": 1, "kernels": [{"tail": "1"}, {"head": ["2"], "tail": "1"}]},
         "NotMaximal", _perp_of_nothing, "dense non-closed descriptor of codimension >= 2"),
        ("so", {"generators": [{"1": "1"}]}, "iiic", _lost_closure, "isotropic descriptors are finite"),
        ("so", {"tail_from": 3}, "NotMaximal", lambda w, context: SubspaceDescriptor.build("V"),
         "zero perp forces codimension 1"),
    ],
    ids=["dense-non-closed", "isotropic-not-closed", "zero-perp-codim-2"],
)
def test_classification_guards_fire(monkeypatch, tmp_path, kind, fields, tag, fake, message):
    path = _subspace_file(tmp_path, **fields)
    w = formats.subspace_input_from_doc(formats.load_json(path))
    form = SYM if kind == "so" else None
    assert classify_maximal(kind, w, form).tag == tag
    monkeypatch.setattr(subspaces, "perp", fake)
    with pytest.raises(InternalConsistencyError, match=message):
        classify_maximal(kind, w, form)
    code, out, err = run_cli("maximal", kind, path)
    assert (code, out) == (1, "") and err.startswith(f"error: {message}")


def test_double_perp_guard_fires(monkeypatch):
    # both users of the gap vector refuse to go on without one
    message = "double perp differs but no witness row found"
    dense = SubspaceDescriptor.kernel([ALL_ONES, EvConstFunctional((2,), 1)])
    assert double_perp_closed(dense)[0] is False
    assert classify_maximal("gl", dense).witness_vector == ((2, 1),)
    path = formats.fixture_path("codim2_kernel.json")
    monkeypatch.setattr(SubspaceDescriptor, "contains", lambda self, vec: True)
    for call in (lambda: double_perp_closed(dense), lambda: classify_maximal("gl", dense)):
        with pytest.raises(InternalConsistencyError, match=message):
            call()
    assert run_cli("maximal", "gl", str(path)) == (1, "", f"error: {message}\n")


def test_small_side_matches_big_side_reference(rng):
    contexts = {"V": ["gl", SYM, SYMP], "V*": ["gl"]}
    for _ in range(300):
        space = rng.choice(["V", "V*"])
        pa, pb = rand_params(rng), rand_params(rng)
        a, b = SubspaceDescriptor.build(space, *pa), SubspaceDescriptor.build(space, *pb)
        ra, rb = ref_build(space, *pa), ref_build(space, *pb)
        assert_matches(a, ra)
        assert_matches(b, rb)
        wider = a.window + rng.randrange(1, 4)
        assert rows_at(a, wider) == ref_at_window(ra, wider).rows
        total, meet = descriptor_sum(a, b), descriptor_intersection(a, b)
        ref_total, ref_meet = ref_sum(ra, rb), ref_intersection(ra, rb)
        assert_matches(total, ref_total)
        assert_matches(meet, ref_meet)
        pairs = [(a, ra, b, rb), (b, rb, a, ra), (total, ref_total, a, ra), (a, ra, meet, ref_meet),
                 (meet, ref_meet, total, ref_total), (a, ra, a, ra)]
        for x, rx, y, ry in pairs:
            assert x.contains_space(y) == ref_contains_space(rx, ry)
        for ctx in contexts[space]:
            assert_matches(perp(a, ctx), ref_perp(ra, ctx))
            assert_matches(perp(meet, ctx), ref_perp(ref_meet, ctx))


def test_long_head_kernel_keeps_eliminations_small(monkeypatch):
    # A tail of codimension k and a span of dimension d in a window of M
    # never need an elimination larger than (k + d + 1) x M cells (rows
    # times the largest column).
    rng = random.Random(200)
    window = 201
    cells = []
    rref = linalg.rref

    def counting_rref(m):
        if m:
            cells.append(len(m) * max((max(r) for r in m if r), default=0))
        return rref(m)

    monkeypatch.setattr(linalg, "rref", counting_rref)

    def head():
        return tuple(Fraction(rng.randrange(-3, 4)) for _ in range(window - 2)) + (Fraction(5),)

    closed = SubspaceDescriptor.kernel([EvConstFunctional(head(), 0), EvConstFunctional(head(), 0)])
    dense = SubspaceDescriptor.kernel([EvConstFunctional(head(), 1), EvConstFunctional(head(), 2)])
    isotropic = SubspaceDescriptor.span([{1: 1}, {3: 1, 200: 2}, {5: 1}])
    degenerate = SubspaceDescriptor.span([{1: 1}, {2: 1}, {200: 1}])
    assert (closed.window, closed.codim, dense.codim) == (window, 2, 2)
    assert (isotropic.window, isotropic.dim, degenerate.window) == (window, 3, window)
    assert classify_maximal("gl", closed).tag == "ic"
    verdict = classify_maximal("gl", dense)
    assert verdict.tag == "NotMaximal" and verdict.witness.codim == 1
    assert verdict.witness_vector is not None
    assert classify_maximal("gl", isotropic).tag == "ic"
    assert classify_maximal("so", isotropic, SYM).tag == "iiic"
    assert classify_maximal("sp", isotropic, SYMP).tag == "iiic"
    verdict = classify_maximal("so", degenerate, SYM)
    assert verdict.tag == "NotMaximal" and verdict.witness == SubspaceDescriptor.span([{200: 1}])
    assert cells and max(cells) <= (2 + 3 + 1) * window


def test_span_eliminations_touch_only_stored_entries(monkeypatch):
    # Classifying a 3-vector span at window 201 hands rref no row with more
    # stored entries than the span's own rows, however wide the window.
    entries = []
    rref = linalg.rref

    def counting_rref(m):
        entries.extend(len(r) for r in m)
        return rref(m)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    w = SubspaceDescriptor.span([{1: 1}, {3: 1, 200: 2}, {5: 1}])
    assert w.window == 201
    assert classify_maximal("gl", w).tag == "ic"
    assert classify_maximal("so", w, SYM).tag == "iiic"
    assert classify_maximal("sp", w, SYMP).tag == "iiic"
    assert entries and max(entries) <= 3
