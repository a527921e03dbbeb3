"""The certificate core against a plain reference that builds every
intermediate as a full array (the mirrored float64 gram, cI, the
off-diagonal gather): the same certificate, field for field and bit for
bit, on built matrices and on tampered copies of them, the exact objects
among them certified through the float32 gram; the one ternary rule of
the exact claims giving the verdicts of the integrality and +-1 tests it
replaced, on random small matrices and tournaments; ``certify`` giving
every claim the verdict of its checker; plus the refusal of an empty
matrix and the memory the core takes."""

import math
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omzd import construct, planner, verify
from omzd.errors import ShapeMismatch
from omzd.numerics import RES_TOL, RealMatrix
from omzd.verify import (
    CLAIMS,
    OrthoCertificate,
    certify,
    certify_graph,
    certify_multipartite,
    check_drt,
    check_skew_hadamard,
)

# --------------------------------------------------------------------------
# Reference
# --------------------------------------------------------------------------


def _reference_residual(a: np.ndarray) -> tuple[float, float]:
    with np.errstate(over="ignore", invalid="ignore"):
        g = a @ a.T
        g = np.triu(g) + np.triu(g, 1).T
        c = float(np.mean(np.diag(g)))
        return c, float(np.max(np.abs(g - c * np.eye(len(a)))))


def _reference_symmetry(a: np.ndarray) -> str:
    if np.array_equal(a, a.T):
        return "symmetric"
    if np.array_equal(a, -a.T):
        return "skew"
    return "neither"


_NOT_TERNARY = "entries are not all 0 or +-1; exact check impossible"


def _ternary_rule(a, nonzero):
    """The exact claims' rule on entries: every one is 0, 1 or -1."""
    return [] if np.all(np.isin(np.abs(a), (0.0, 1.0))) else [_NOT_TERNARY]


# the two messages of the rule that _ternary_rule replaced
_PARENT_MESSAGES = (
    "entries are not integral; exact integer check impossible",
    "required nonzero entries are not all +-1",
)


def _parent_rule(a, nonzero):
    """The rule _ternary_rule replaced: integral entries, and +-1 at the
    required nonzeros."""
    if not np.all(a == np.round(a)):
        return [_PARENT_MESSAGES[0]]
    if not np.all(np.abs(a[nonzero]) == 1.0):
        return [_PARENT_MESSAGES[1]]
    return []


def _reference_core(
    m, claim, zero, nonzero, *, exact=False, symmetric=False, zero_tol=None, res_tol=RES_TOL,
    failures=(), exact_rule=_ternary_rule,
):
    a = m.data
    n = len(a)
    failures = list(failures)
    min_offdiag = 0.0
    if zero is not None:
        magnitude = np.abs(a)
        top = float(np.max(magnitude, where=np.isfinite(magnitude), initial=0.0))  # the largest finite
        tol = 1e-12 * top if zero_tol is None else zero_tol
        is_zero = magnitude <= tol
        off = ~np.eye(n, dtype=bool)
        for bad, word in ((zero & ~is_zero, "nonzero"), (nonzero & is_zero, "zero")):
            on_diagonal = int(np.sum(np.diag(bad)))
            if on_diagonal:
                failures.append(f"{on_diagonal} diagonal entries are {word}")
            positions = [(int(i), int(j)) for i, j in np.argwhere(bad & off)[:8]]
            if positions:
                failures.append(f"off-diagonal {word}s at {positions}")
        free = magnitude[off & ~zero]
        min_offdiag = float(np.min(free)) if free.size else math.inf
    if exact:
        failures += exact_rule(a, nonzero)
    c, max_residual = _reference_residual(a)
    before_gram = len(failures)
    if not (0.0 < c < math.inf):
        failures.append(f"recovered scale {c} is not positive and finite")
    elif exact:
        if max_residual != 0.0:
            failures.append(f"gram deviates from cI by {max_residual} (exact check)")
    elif not (max_residual <= res_tol * c * n):
        failures.append(
            f"max residual {max_residual:.3e} exceeds {res_tol:.1e} * c * n = "
            f"{res_tol * c * n:.3e}"
        )
    declared = m.scale_c
    if len(failures) == before_gram and declared is not None:  # MMᵀ = cI holds: c is the scale
        agrees = declared == c if exact else abs(c - declared) <= res_tol * c * n
        if not agrees:
            failures.append(f"declared scale_c {declared} differs from the recovered c {c}")
    symmetry = _reference_symmetry(a)
    if symmetric and symmetry != "symmetric":
        failures.append("matrix is " + ("skew, " if symmetry == "skew" else "") + "not symmetric")
    return (claim, not failures, c, max_residual, min_offdiag, symmetry, tuple(failures))


# claim -> (label, zero mask, nonzero mask), each mask from the bool identity
_REFERENCE_MASKS = {
    "omzd": ("OMZD", lambda e: e, lambda e: ~e),
    "symmetric-omzd": ("SymmetricOMZD", lambda e: e, lambda e: ~e),
    "conference": ("Conference", lambda e: e, lambda e: ~e),
    "skew-hadamard": ("SkewHadamard({n})", np.zeros_like, np.ones_like),
    "ompzd": ("OMPZD({k})", np.zeros_like, lambda e: ~e),
    "nowhere-zero": ("NowhereZeroOrthogonal", np.zeros_like, np.ones_like),
    "orthogonal": ("Orthogonal", np.zeros_like, np.zeros_like),
}


def _reference_drt(m, exact_rule=_ternary_rule):
    """A tournament's certificate: the core on its bordered H = T - Tᵀ + I,
    under the skew-Hadamard masks, after T's own failures, one of which is
    a declared scale: a tournament has no c."""
    a = m.data
    q = m.order
    h = np.ones((q + 1, q + 1))
    h[1:, 0] = -1
    with np.errstate(over="ignore", invalid="ignore"):  # an inf entry: inf - inf is NaN
        h[1:, 1:] = a - a.T
        np.fill_diagonal(h[1:, 1:], 1)  # a_ii - a_ii + 1, which is 1 for an infinite a_ii too
        oriented = np.array_equal(a + a.T, np.ones((q, q)) - np.eye(q))
    failures = []
    if not np.all(np.isin(a, (0, 1))):
        failures.append("entries are not all in {0, 1}")
    if not oriented:
        failures.append("not an orientation of the complete graph: T + T^T != J - I")
    if q % 4 != 3:
        failures.append(f"order {q} is not 3 mod 4")
    if m.scale_c is not None:
        failures.append(f"a tournament declares no scale_c, got {m.scale_c}")
    eye = np.eye(q + 1, dtype=bool)
    return _reference_core(
        RealMatrix(h), f"DRT({q})", np.zeros_like(eye), np.ones_like(eye),
        exact=True, failures=tuple(failures), exact_rule=exact_rule,
    )


def _reference_certify(m, claim, k=None, zero_tol=None, res_tol=RES_TOL, exact_rule=_ternary_rule):
    if claim == "drt":
        return _reference_drt(m, exact_rule)
    if claim == "ompzd" and k == 0:  # no diagonal zero: the nowhere-zero claim
        claim = "nowhere-zero"
    label, zero, nonzero = _REFERENCE_MASKS[claim]
    eye = np.eye(m.order, dtype=bool)
    failures = ()
    with np.errstate(over="ignore", invalid="ignore"):
        if claim == "skew-hadamard" and not np.array_equal(m.data + m.data.T, 2 * eye):
            failures = ("H + H^T != 2I",)
    if claim == "ompzd":
        tol = 1e-12 * m.max_abs() if zero_tol is None else zero_tol
        zeros = int(np.sum(np.abs(np.diag(m.data)) <= tol))
        if zeros != k:
            failures = (f"expected exactly {k} diagonal zeros, found {zeros}",)
    return _reference_core(
        m, label.format(k=k, n=m.order), zero(eye), nonzero(eye),
        exact=claim in ("conference", "skew-hadamard"), symmetric=claim == "symmetric-omzd",
        zero_tol=zero_tol, res_tol=res_tol, failures=failures, exact_rule=exact_rule,
    )


def _reference_graph(m, adjacency):
    off = ~np.eye(m.order, dtype=bool)
    return _reference_core(m, "Graph", off & ~adjacency, adjacency, symmetric=True)


def _reference_multipartite(m, n, parts):
    claim = f"Multipartite({n},{parts})"
    if m.order != n * parts:
        failures = (f"expected order {n * parts}, got {m.data.shape}",)
        return _reference_core(m, claim, None, None, symmetric=True, failures=failures)
    blocks = np.kron(np.eye(parts, dtype=bool), np.ones((n, n), dtype=bool))
    return _reference_core(m, claim, blocks, ~blocks, symmetric=True)


# --------------------------------------------------------------------------
# Inputs: built roots and tampered copies
# --------------------------------------------------------------------------


def _root(kind, n=None, k=None, **kw):
    return planner.execute(planner.plan(kind, n, k, **kw))[0]


def _built():
    return {
        "omzd-5": construct.seed("omzd", 5),
        "omzd-11": _root("omzd", 11),
        "omzd-51": _root("omzd", 51),
        "omzd-51-transposed": RealMatrix(np.asfortranarray(_root("omzd", 51).data.T)),  # column-major
        "symmetric-6": _root("symmetric-omzd", 6),
        "symmetric-50": _root("symmetric-omzd", 50),
        "conference-6": _root("conference", q=5),
        "conference-28": _root("conference", q=27),
        "conference-82": _root("conference", q=81),
        "conference-252": _root("conference", q=251),
        "skew-hadamard-8": _root("skew-hadamard", q=7),
        "skew-hadamard-24": _root("skew-hadamard", q=11, t=1),
        "skew-hadamard-200": _root("skew-hadamard", q=199),
        "drt-7": _root("drt", q=7),
        "drt-43": _root("drt", q=43),
        "drt-87": _root("drt", q=43, t=1),
        "sylvester-4": RealMatrix(np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]])),  # Hadamard, not skew
        "ompzd-11-6": _root("ompzd", 11, 6),
        "ompzd-50-3": _root("ompzd", 50, 3),
        "ompzd-13-12": _root("ompzd", 13, 12),
        "nowhere-zero-7": _root("ompzd", 7, 0),
        "identity-5": RealMatrix(np.eye(5)),
        "multipartite-3-6": _root("multipartite", 3, m=6),
        "overflow-4": RealMatrix(1e200 * (np.ones((4, 4)) - np.eye(4))),
    }


def _tampered(m: RealMatrix) -> dict:
    """Copies with one defect each, at entries that every claim requires
    one way or the other, or that break a symmetry, flip a sign or reverse
    a tournament's arc (i, j) = (1, 2), or in the declared scale."""
    a = m.data
    top = float(np.max(np.abs(a)))
    out = {}

    def copy_with(label, edit):
        b = np.array(a)
        edit(b)
        out[label] = RealMatrix(b)

    copy_with("zero-off", lambda b: b.__setitem__((0, 1), 0.0))
    copy_with("flip-off", lambda b: b.__setitem__((0, 1), -b[0, 1]))
    copy_with("swap-pair", lambda b: b.__setitem__(((1, 2), (2, 1)), b[(2, 1), (1, 2)]))  # a tournament's arc
    copy_with("zero-diag", lambda b: b.__setitem__((1, 1), 0.0))
    copy_with("bump-diag", lambda b: b.__setitem__((0, 0), b[0, 0] + 1e-6 * top))
    copy_with("bump-off", lambda b: b.__setitem__((0, 1), b[0, 1] + 1e-6 * top))
    copy_with("asymmetric", lambda b: b.__setitem__((0, 1), b[0, 1] * (1 + 2.0**-40)))
    copy_with("asymmetric-inner", lambda b: b.__setitem__((2, 3), b[2, 3] * (1 + 2.0**-40)))
    copy_with("half", lambda b: b.__setitem__((0, 1), 1.5))
    copy_with("two", lambda b: b.__setitem__((0, 1), 2.0))
    out["wrong-scale"] = RealMatrix(a, scale_c=3.0 * (m.scale_c or 1.0))  # the entries untouched
    return out


def _cases():
    for name, m in _built().items():
        yield name, m
        for label, t in _tampered(m).items():
            yield f"{name}/{label}", t


CASES = dict(_cases())


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _fields(cert) -> tuple:
    return (
        cert.claim, cert.passed, _bits(cert.scale_c), _bits(cert.max_residual),
        _bits(cert.min_offdiag_magnitude), cert.symmetry, cert.failures,
    )


def _reference_fields(ref) -> tuple:
    claim, passed, c, res, margin, symmetry, failures = ref
    return (claim, passed, _bits(c), _bits(res), _bits(margin), symmetry, failures)


def _diagonal_zero_count(m: RealMatrix) -> int:
    return int(np.sum(np.abs(np.diag(m.data)) <= 1e-12 * m.max_abs()))


# --------------------------------------------------------------------------
# Tests
# --------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_every_claim_matches_the_reference(case):
    m = CASES[case]
    k = _diagonal_zero_count(m)
    for claim in (*_REFERENCE_MASKS, "drt"):
        for kk in ((k, k + 1) if claim == "ompzd" else (None,)):
            got = certify(m, claim, k=kk)
            assert _fields(got) == _reference_fields(_reference_certify(m, claim, k=kk)), (claim, kk)


@pytest.mark.parametrize("case", CASES)
def test_graph_and_multipartite_match_the_reference(case):
    m = CASES[case]
    n = m.order
    support = np.abs(m.data) > 1e-12 * m.max_abs()
    adjacency = support & support.T & ~np.eye(n, dtype=bool)
    assert _fields(certify_graph(m, adjacency)) == _reference_fields(_reference_graph(m, adjacency))
    complete = ~np.eye(n, dtype=bool)
    assert _fields(certify_graph(m, complete)) == _reference_fields(_reference_graph(m, complete))
    for part_size, parts in ((3, n // 3), (1, n), (n, 1), (2, 3)):
        got = certify_multipartite(m, part_size, parts)
        ref = _reference_multipartite(m, part_size, parts)
        assert _fields(got) == _reference_fields(ref), (part_size, parts)


@pytest.mark.parametrize("zero_tol,res_tol", [(0.5, RES_TOL), (0.0, 0.0), (None, 1e-3)])
@pytest.mark.parametrize("case", ["omzd-51", "ompzd-50-3/bump-diag", "conference-28/zero-off"])
def test_tolerances_match_the_reference(case, zero_tol, res_tol):
    m = CASES[case]
    for claim in ("omzd", "ompzd", "nowhere-zero"):
        got = certify(m, claim, k=3, zero_tol=zero_tol, res_tol=res_tol)
        ref = _reference_certify(m, claim, k=3, zero_tol=zero_tol, res_tol=res_tol)
        assert _fields(got) == _reference_fields(ref), claim


def _gram_routes(monkeypatch) -> list[bool]:
    """The ``ternary`` flag of each gram the core takes from now on: True
    is the float32 product."""
    routes, residual = [], verify.residual_scaled_identity

    def spy(m, *, ternary=False):
        routes.append(ternary)
        return residual(m, ternary=ternary)

    monkeypatch.setattr(verify, "residual_scaled_identity", spy)
    return routes


# exact built matrices and their claims
_EXACT = [
    ("conference-28", "conference"),
    ("conference-252", "conference"),
    ("skew-hadamard-200", "skew-hadamard"),
    ("drt-43", "drt"),
    ("drt-87", "drt"),
]


@pytest.mark.parametrize("name,claim", _EXACT, ids=[name for name, _ in _EXACT])
def test_exact_claims_take_the_float32_gram_only_on_unit_entries(monkeypatch, name, claim):
    # a flipped sign (for a tournament, -1 in T, or a reversed arc) or a
    # zeroed entry keeps the entries in {0, +-1} and fails through the
    # float32 gram; a perturbed entry takes the float64 one; either way the
    # certificate is the reference's, bit for bit
    routes = _gram_routes(monkeypatch)
    cases = [("", True), ("flip-off", True), ("zero-off", True), ("bump-off", False)]
    for label, float32 in cases + ([("swap-pair", True)] if claim == "drt" else []):
        m = CASES[f"{name}/{label}" if label else name]
        got = certify(m, claim)
        assert (routes.pop(), got.passed) == (float32, not label), label
        assert _fields(got) == _reference_fields(_reference_certify(m, claim)), label


# the exact claims, each with its parent-rule reference
_EXACT_CLAIMS = ("conference", "skew-hadamard", "drt")
_VALUES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

# exact objects of order <= 9, which _small_matrices edits: Paley
# conference matrices, skew-Hadamard matrices and DRTs
_SMALL_EXACT = [
    *(_root("conference", q=q).data for q in (3, 5, 7)),
    *(_root("skew-hadamard", q=q).data for q in (3, 7)),
    *(_root("drt", q=q).data for q in (3, 7)),
]


@st.composite
def _edits(draw, a: np.ndarray) -> np.ndarray:
    """``a`` with up to three entries set to values of _VALUES, and one
    time in eight one more entry set to inf or -inf."""
    a = np.array(a, dtype=float)
    n = len(a)
    position = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for _ in range(draw(st.integers(0, 3))):
        a[draw(position)] = draw(st.sampled_from(_VALUES))
    if draw(st.integers(0, 7)) == 0:
        a[draw(position)] = draw(st.sampled_from((math.inf, -math.inf)))
    return a


@st.composite
def _small_matrices(draw) -> np.ndarray:
    """A square matrix of order 1-9: entries drawn from _VALUES, an exact
    object, or a tournament, each then edited by _edits."""
    source = draw(st.sampled_from(("values", "exact", "tournament")))
    if source == "exact":
        a = draw(st.sampled_from(_SMALL_EXACT))
    elif source == "values":
        n = draw(st.integers(1, 9))
        a = np.array(draw(st.lists(st.sampled_from(_VALUES), min_size=n * n, max_size=n * n))).reshape(n, n)
    else:
        n = draw(st.integers(1, 9))
        upper = np.triu_indices(n, 1)
        a = np.zeros((n, n))
        a[upper] = draw(st.lists(st.integers(0, 1), min_size=len(upper[0]), max_size=len(upper[0])))
        a.T[upper] = 1 - a[upper]
    return draw(_edits(a))


def _without(failures, messages) -> tuple:
    return tuple(f for f in failures if f not in messages)


def _verdict_fields(cert) -> tuple:
    """The fields the exact rule must not move; a NaN is any NaN."""
    return (
        cert.passed, *("nan" if math.isnan(x) else _bits(x) for x in (cert.scale_c, cert.max_residual)),
        _bits(cert.min_offdiag_magnitude), cert.symmetry,
    )


def _assert_parent_verdict(m):
    """Each exact claim on ``m`` gives the reference's certificate, and the
    verdict of the parent rule, whose failures differ only by the rule's
    own messages."""
    for claim in _EXACT_CLAIMS:
        got = certify(m, claim)
        ref, parent = (
            OrthoCertificate(*_reference_certify(m, claim, exact_rule=rule)) for rule in (_ternary_rule, _parent_rule)
        )
        assert (_verdict_fields(got), got.failures) == (_verdict_fields(ref), ref.failures), claim
        assert _verdict_fields(got) == _verdict_fields(parent), claim
        assert _without(got.failures, (_NOT_TERNARY,)) == _without(parent.failures, _PARENT_MESSAGES), claim


@settings(max_examples=300, deadline=None)
@given(a=_small_matrices())
def test_the_ternary_rule_keeps_the_parent_verdicts(a):
    _assert_parent_verdict(RealMatrix(a))


@pytest.mark.parametrize("case", CASES)
def test_the_ternary_rule_keeps_the_parent_verdicts_on_every_case(case):
    _assert_parent_verdict(CASES[case])


def _unmirrored_residual(a: np.ndarray) -> tuple[float, float]:
    # the float64 gram, read whole: on entries in {0, +-1} it is exact and
    # symmetric, so this is _reference_residual's result with a third of
    # its n x n arrays
    g = a @ a.T
    c = float(np.mean(np.diag(g)))
    g.flat[:: len(a) + 1] -= c
    return c, float(np.max(np.abs(g, out=g)))


@pytest.fixture(scope="module")
def skew_hadamard_4096():
    # the largest order a plan builds (MAX_ORDER): DRT(127) doubled 5 times
    return _root("skew-hadamard", q=127, t=5)


@pytest.mark.parametrize("flip", [False, True], ids=["built", "flipped"])
def test_float32_gram_at_max_order_matches_the_float64_one(monkeypatch, skew_hadamard_4096, flip):
    m = skew_hadamard_4096
    assert m.order == planner.MAX_ORDER
    if flip:
        a = np.array(m.data)
        a[5, 9] = -a[5, 9]
        m = RealMatrix(a, scale_c=m.scale_c)
    routes = _gram_routes(monkeypatch)
    got = certify(m, "skew-hadamard")
    assert routes == [True] and got.passed != flip
    monkeypatch.setattr(sys.modules[__name__], "_reference_residual", _unmirrored_residual)
    assert _fields(got) == _reference_fields(_reference_certify(m, "skew-hadamard"))


def test_overflowing_gram_keeps_nan_residual():
    cert = certify(CASES["overflow-4"], "omzd")
    assert cert.scale_c == math.inf and math.isnan(cert.max_residual)
    assert cert.failures == ("recovered scale inf is not positive and finite",)


# claim -> (a built matrix of it, the keywords of its claim)
_BUILT = {
    "omzd": (lambda: _root("omzd", 11), {}),
    "symmetric-omzd": (lambda: _root("symmetric-omzd", 10), {}),
    "ompzd": (lambda: _root("ompzd", 11, 3), {"k": 3}),
    "conference": (lambda: _root("conference", q=13), {}),
    "skew-hadamard": (lambda: _root("skew-hadamard", q=7, t=1), {}),
    "drt": (lambda: _root("drt", q=11), {}),
    "nowhere-zero": (lambda: construct.nowhere_zero_orthogonal(6), {}),
    "multipartite": (lambda: _root("multipartite", 2, m=6), {"part_size": 2, "parts": 6}),
    "orthogonal": (lambda: _root("omzd", 9), {}),
}


class TestOneEntry:
    """``certify`` is the one claim dispatcher: every claim gives an
    OrthoCertificate, the verdict of its direct checker, or of the
    reference for a pattern claim or a tournament, field for field."""

    def test_table_covers_every_claim(self):
        assert set(_BUILT) == set(CLAIMS)

    @pytest.mark.parametrize("claim", CLAIMS)
    @pytest.mark.parametrize("tampered", [False, True], ids=["built", "tampered"])
    def test_same_verdict_as_the_direct_checker(self, claim, tampered):
        build, kw = _BUILT[claim]
        m = build()
        if tampered:
            a = np.array(m.data)
            a[0, 1] += 1.0
            m = RealMatrix(a, scale_c=m.scale_c)
        got = certify(m, claim, **kw)
        assert isinstance(got, OrthoCertificate)
        assert got.passed != tampered
        if claim == "multipartite":
            assert got == certify_multipartite(m, kw["part_size"], kw["parts"])
        else:
            assert _fields(got) == _reference_fields(_reference_certify(m, claim, **kw))
        if claim == "skew-hadamard":
            assert got == check_skew_hadamard(m)

    @pytest.mark.parametrize(
        "claim,tolerance",
        [
            ("omzd", {"res_tol": math.inf}),
            ("omzd", {"zero_tol": -1.0}),
            ("drt", {"res_tol": math.nan}),
            ("skew-hadamard", {"zero_tol": math.inf}),
            ("multipartite", {"res_tol": -1.0}),
            ("multipartite", {"zero_tol": math.nan}),
        ],
    )
    def test_tolerances_are_refused(self, claim, tolerance):
        build, kw = _BUILT[claim]
        ((name, value),) = tolerance.items()
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, got {value!r}$"):
            certify(build(), claim, **kw, **tolerance)


class TestEmptyMatrix:
    EMPTY = RealMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "check",
        [
            lambda m: certify(m, "omzd"),
            lambda m: certify(m, "ompzd", k=0),
            lambda m: certify_graph(m, np.zeros((0, 0), dtype=bool)),
            lambda m: certify_multipartite(m, 1, 1),
            lambda m: certify(m, "ompzd"),
            check_drt,
            check_skew_hadamard,
        ],
        ids=[
            "certify", "certify-ompzd", "graph", "multipartite", "certify-ompzd-without-k",
            "check-drt", "check-skew-hadamard",
        ],
    )
    def test_raises_shape_mismatch_without_a_warning(self, check):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeMismatch, match=r"^certification needs a matrix of order >= 1, got 0x0$"):
                check(self.EMPTY)

    @pytest.mark.parametrize("claim", CLAIMS)
    def test_every_claim_raises_through_certify(self, claim):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeMismatch, match=r"^certification needs a matrix of order >= 1, got 0x0$"):
                certify(self.EMPTY, claim, part_size=1, parts=1)


class TestNonSquareMatrix:
    NON_SQUARE = RealMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize("claim", CLAIMS)
    def test_every_claim_raises_through_certify(self, claim):
        with pytest.raises(ShapeMismatch, match=r"^certification needs a square matrix, got 2x3$"):
            certify(self.NON_SQUARE, claim, part_size=1, parts=1)


def test_certify_peak_memory():
    # |m| and one bool array from it, then the gram: 1.13 n^2 doubles when
    # this was set; n x n bool rule masks would add 0.25
    m = _root("omzd", 401)
    n = m.order
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert certify(m, "omzd").passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n


def test_skew_hadamard_peak_memory():
    # the H + Hᵀ = 2I test makes one n x n array and frees it before the
    # core runs, which holds |H| and one bool array from it, and then the
    # float32 copy of H and its float32 gram: 1.13 n^2 doubles when this
    # was set; an np.round integrality test beside |H| would add 1
    h = construct.drt_to_skew_hadamard(construct.paley_tournament(487))
    n = h.order
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert check_skew_hadamard(h).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n
