import hashlib
import json
import random
from fractions import Fraction
from itertools import compress, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie import appendix, cli
from quadlie.appendix import (
    BranchReport,
    _rank1_case_shapes,
    _rank2_case_shapes,
    case_families,
    random_survey,
    rank1_eliminated_branches,
    rank2_case_families,
    udu_check,
    udu_identity_holds,
)
from quadlie.braided import (
    BraidedSpace,
    braid_relation_holds,
    diagonal_braiding,
    split_minpoly,
)
from quadlie.brackets import QuadraticLieAlgebra, _e2bar_integral, axiom_check, solve_linear_bracket_space, verify_lifted
from quadlie.classify import canonical_form, conjugate
from quadlie.fields import GF, QQ
from quadlie.linalg import Mat, SparseEchelon, Subspace, null_space, raw_product
from quadlie.table import GAMMA_RULES, gamma_allowed, gamma_canonical, row_instance

from conftest import dense_verify_lifted


def test_udu_trace_example():
    # diag(1,2,3,4) has trace 10
    assert udu_identity_holds(QQ, [1, 2, 3, 4])


def test_udu_randomized():
    assert udu_check(QQ, 100, seed=1)
    assert udu_check(GF(5), 100, seed=2)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=str)
def test_udu_raw_rows_match_mat_products(monkeypatch, field):
    # the raw product chain against Mat products: the last raw product is
    # U D U, and the verdict is that of U D U == Tr(D) U on Mats, with
    # diagonal entries outside [0, p) and Fractions over Q
    products = []

    def recorded(a, b, p=None):
        products.append(raw_product(a, b, p))
        return products[-1]

    monkeypatch.setattr(appendix, "raw_product", recorded)
    rng = random.Random(str(field))
    u = Mat.from_rows(field, [[1] * 4 for _ in range(4)])
    for _ in range(50):
        diag = [rng.randint(-30, 30) for _ in range(4)]
        diag[0] = -rng.randint(1, 30)  # outside [0, p) over GF(p)
        if field.is_rationals:
            diag[rng.randrange(1, 4)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        d = Mat.from_rows(field, [[diag[i] if i == j else 0 for j in range(4)] for i in range(4)])
        udu = u @ d @ u
        assert udu_identity_holds(field, diag) == (udu == u.scale(sum(diag)))
        assert products[-1] == udu.a


def test_rank2_case_families_empty_gf3():
    reports = rank2_case_families(GF(3))
    assert set(reports) == {
        "case_1",
        "case_2_1",
        "case_2_2_1",
        "case_2_2_2",
        "case_residual",
    }
    for name, rep in reports.items():
        assert rep.candidates > 0, name
        assert rep.solutions == [], name


def test_rank1_eliminated_branches_empty_gf3():
    reports = rank1_eliminated_branches(GF(3))
    assert set(reports) == {"case_2_1_1", "case_2_1_2", "case_2_2_1_1"}
    for name, rep in reports.items():
        assert rep.candidates > 0, name
        assert rep.solutions == [], name


def test_case_families_wrapper():
    reports = case_families(GF(3))
    assert len(reports) == 8
    assert all(not rep.solutions for rep in reports.values())
    assert reports == {**rank2_case_families(GF(3)), **rank1_eliminated_branches(GF(3))}


def test_appendix_checks_dispatcher(capsys):
    # the search scopes dispatch through the command line
    assert cli.main(["search", "--field", "GF(5)", "--scope", "udu", "--samples", "20", "--seed", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert cli.main(["search", "--field", "GF(3)", "--scope", "case_families"]) == 0
    assert json.loads(capsys.readouterr().out)["all_empty"] is True
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--field", "GF(3)", "--scope", "bogus"])
    assert exc.value.code == 2


def test_survey_gf5():
    rep = random_survey(GF(5), seed=11, max_brackets_per_braiding=60)
    assert rep.braidings_tried > 600
    assert rep.verified > 50
    assert rep.rank2_conclusions_hold
    # every harvested rank-two instance (if any) passed its conclusions
    assert all(inst["conclusions"] for inst in rep.rank2_instances if inst["conclusions"] is not None)


def test_survey_determinism():
    a = random_survey(GF(5), seed=3, max_brackets_per_braiding=20)
    b = random_survey(GF(5), seed=3, max_brackets_per_braiding=20)
    assert (a.braidings_tried, a.brackets_checked, a.verified, a.rank2_found) == (
        b.braidings_tried,
        b.brackets_checked,
        b.verified,
        b.rank2_found,
    )


def test_integer_fast_path_matches_generic(dense_yang_baxter_oracle, dense_lifted_oracle):
    # the enumeration kernels (raw slot lifts, bracket lifts, joint
    # eigenspace, braid relation, axiom checks) must agree with the dense
    # Scalar machinery
    from quadlie.braided import lift_to_slot, mat_tensor
    from quadlie.table import default_gamma

    rng = random.Random(99)
    F = GF(5)
    eye = Mat.identity(F, 2)
    for _ in range(60):
        c_rows = tuple(tuple(rng.randrange(5) for _ in range(4)) for _ in range(4))
        cmat = Mat.from_rows(F, [list(r) for r in c_rows])
        sp = BraidedSpace(F, 2, cmat, check=False)
        assert braid_relation_holds(c_rows, 5) == dense_yang_baxter_oracle(sp)
        assert lift_to_slot(cmat, 1, 3, 2, 2, 2).a == mat_tensor(F, cmat, eye).a
        assert lift_to_slot(cmat, 2, 3, 2, 2, 2).a == mat_tensor(F, eye, cmat).a
        assert len(_e2bar_integral(sp)) == sp.e2bar().dim
        b_rows = tuple(tuple(rng.randrange(5) for _ in range(4)) for _ in range(2))
        q = QuadraticLieAlgebra(sp, Mat.from_rows(F, [list(r) for r in b_rows]))
        assert lift_to_slot(q.beta, 1, 3, 2, 2, 1).a == mat_tensor(F, q.beta, eye).a
        assert lift_to_slot(q.beta, 2, 3, 2, 2, 1).a == mat_tensor(F, eye, q.beta).a

    # axiom agreement, on braidings that do satisfy the braid relation:
    # the canonical rows with both genuine and random brackets
    agreements = 0
    for row in range(1, 9):
        inst = row_instance(row, F, default_gamma(row, F))
        holds = axiom_check(inst.space)
        candidates = [tuple(map(tuple, inst.beta.a))]
        for _ in range(10):
            candidates.append(tuple(tuple(rng.randrange(5) for _ in range(4)) for _ in range(2)))
        for b_rows in candidates:
            q = QuadraticLieAlgebra(inst.space, Mat.from_rows(F, [list(r) for r in b_rows]))
            assert holds(b_rows) == dense_lifted_oracle(q).ok
            agreements += 1
    assert agreements == 88


def test_rejects_rationals():
    with pytest.raises(ValueError):
        rank2_case_families(QQ)
    with pytest.raises(ValueError):
        random_survey(QQ)


def _has_minus_one_simple_root(c_rows, field):
    space = BraidedSpace(field, 2, Mat.from_rows(field, c_rows), check=False)
    return appendix._split_or_none(space) is not None


def test_minus_one_root_classification():
    F = GF(5)
    flip = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    jordan = [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert _has_minus_one_simple_root(flip, F)
    assert not _has_minus_one_simple_root(ident, F)  # -1 is not a root
    assert not _has_minus_one_simple_root(jordan, F)  # -1 is a double root


def test_split_failures_other_than_double_root_propagate(monkeypatch):
    # only MinusOneNotSimple means "outside the hypothesis"; any other
    # error is a fault and must not be swallowed
    def broken(space):
        raise RuntimeError("broken split")

    monkeypatch.setattr(appendix, "split_minpoly", broken)
    flip = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    with pytest.raises(RuntimeError):
        _has_minus_one_simple_root(flip, GF(3))
    # the survey splits the minimal polynomial at a braiding's first
    # rank-two find; count every verified bracket as one
    monkeypatch.setattr(appendix, "column_space", lambda m: Subspace.full(m.field, m.rows))
    with pytest.raises(RuntimeError):
        random_survey(GF(3), seed=0, max_brackets_per_braiding=5)


def test_survey_splits_minpoly_only_for_rank_two_finds(monkeypatch):
    # no rank-two bracket turns up at GF(3), so no split is computed, and
    # the report is the same as with a split of every braiding
    calls = []

    def counted(space):
        calls.append(space)
        return split_minpoly(space)

    monkeypatch.setattr(appendix, "split_minpoly", counted)
    rep = random_survey(GF(3), seed=0, max_brackets_per_braiding=20)
    assert rep.rank2_found == 0 and rep.verified > 0
    assert calls == []


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=str)
def test_rank2_conclusions_on_controls(field):
    # the survey finds no rank-two bracket over GF(3), GF(5) or GF(7), so
    # the check runs here on hand-made cases: with q11 = -1 and every other
    # q_ij = 1 the minimal polynomial is X^2 - 1 and
    # Im(c + Id) = <x2 x2, x1 x2 + x2 x1>
    def space(q11):
        c = diagonal_braiding(2, [[q11, 1], [1, 1]])
        return BraidedSpace(field, 2, Mat.from_rows(field, c))

    def holds(sp, b):
        assert appendix._split_or_none(sp) is not None
        return appendix._rank2_conclusions(sp, Mat.from_rows(field, b))

    sign = space(-1)
    assert holds(sign, [[1, 0, 0, 0], [0, 1, -1, 0]])  # Ker b = Im(c + Id)
    assert not holds(sign, [[0, 0, 0, 1], [0, 1, -1, 0]])  # x2 x2 is not in Ker b
    # on the flip dim Im(c + Id) = 3
    assert not holds(space(1), [[1, 0, 0, 0], [0, 1, -1, 0]])


def test_template_equations_and_e2bar_bases_pinned():
    # the slot lifts behind the appendix's Yang-Baxter equations and the
    # joint (-1)-eigenspaces, against the SHA-256 of their values recorded
    # before the lifts were read from the cached shape patterns
    from quadlie.table import default_gamma

    templates = (appendix._RANK2_TEMPLATE, appendix._RANK1_TEMPLATE, appendix._CORNER_TEMPLATE)
    equations = [appendix._yang_baxter_equations(t) for t in templates]
    bases = [
        row_instance(row, field, default_gamma(row, field)).space.e2bar().basis
        for field in (QQ, GF(5), GF(7))
        for row in range(1, 9)
    ]
    assert [len(e) for e in equations] == [38, 14, 16]
    assert sum(map(len, bases)) == 12
    blob = json.dumps([equations, bases], default=str).encode()
    assert hashlib.sha256(blob).hexdigest() == "a562b31316dc00699a48f7d1df9bb0222ef96435ba9cca10261183ced360a6de"


def _dense_int_product(a, b, p):
    """Reference product: every entry is the full sum over the inner index."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(len(b[0]))) for i in range(len(a))
    )


@pytest.fixture
def generic_yang_baxter(dense_yang_baxter_oracle):
    """The braid relation of a raw 2-dimensional c over GF(p) by the dense
    triple product."""

    def check(c, p):
        F = GF(p)
        return dense_yang_baxter_oracle(BraidedSpace(F, 2, Mat.from_rows(F, [list(r) for r in c]), check=False))

    return check


def test_int_matmul_matches_dense_reference():
    rng = random.Random(23)
    for trial in range(300):
        p = (3, 5, 7)[trial % 3]
        r, k, c = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8)
        zero_row, zero_col = rng.randrange(k), rng.randrange(c)
        density = (0.1, 0.5, 1.0)[trial % 3]
        a = tuple(tuple(rng.randrange(-p, 2 * p) if rng.random() < density else 0 for _ in range(k)) for _ in range(r))
        b = tuple(
            tuple(0 if i == zero_row or j == zero_col or rng.random() > density else rng.randrange(p) for j in range(c))
            for i in range(k)
        )
        assert tuple(map(tuple, raw_product(a, b, p))) == _dense_int_product(a, b, p)
    with pytest.raises(ValueError, match="shape mismatch"):
        raw_product(((1, 2, 3),), ((1,), (2,)), 5)


def test_int_yang_baxter_matches_generic_on_all_corner_shapes(generic_yang_baxter):
    passed = 0
    for a, g, q, qi, h, b in product(range(3), repeat=6):
        c = ((a, 0, 0, g), (0, 0, q, 0), (0, qi, 0, 0), (h, 0, 0, b))
        got = braid_relation_holds(c, 3)
        assert got == generic_yang_baxter(c, 3), c
        passed += got
    assert 0 < passed < 729


# ---------------------------------------------------------------------------
# the shape families, solved by backtracking, against brute force
# ---------------------------------------------------------------------------

def _template_shapes(template, p, values=None):
    """Every shape of a template over GF(p), in product order over its
    parameters; parameter i takes the values values[i], all residues by
    default."""
    names = list(dict.fromkeys(x for row in template for x in row if isinstance(x, str)))
    for point in product(*(values or [range(p)] * len(names))):
        yield tuple(tuple(point[names.index(x)] if isinstance(x, str) else x % p for x in row) for row in template)


def _rank_one_plus_identity(c, p):
    """dim Im(c + Id) = 1."""
    return SparseEchelon(GF(p), [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(c)]).rank == 1


def _corner_points(p):
    return (tuple(map(tuple, c)) for c in appendix._corner_braidings(GF(p)))


#: family -> (its template, its solver points over GF(p), its rank condition)
_FAMILIES = {
    "rank1": (appendix._RANK1_TEMPLATE, _rank1_case_shapes, lambda c, p: True),
    "rank2": (appendix._RANK2_TEMPLATE, _rank2_case_shapes, _rank_one_plus_identity),
    "corner": (appendix._CORNER_TEMPLATE, _corner_points, lambda c, p: True),
}


def _brute_force(family, p, values=None):
    """The family's shapes that pass the generic Yang-Baxter test and its
    rank condition, with their indices in product order."""
    template, _, rank = _FAMILIES[family]
    shapes = enumerate(_template_shapes(template, p, values))
    return [(idx, c) for idx, c in shapes if braid_relation_holds(c, p) and rank(c, p)]


@pytest.mark.parametrize("family, p", [("rank1", 3), ("rank2", 3), ("corner", 3), ("corner", 5)])
def test_solver_points_match_brute_force(family, p):
    # every shape of the family's template, in order, and the sweep visits
    # exactly those shapes, in that order
    _, points, _ = _FAMILIES[family]
    expect = [c for _, c in _brute_force(family, p)]
    assert list(points(p)) == expect
    swept = []
    appendix._sweep(GF(p), points(p), {}, lambda c, space: swept.append(c) or {})
    assert swept == expect


@pytest.mark.parametrize("family", ["rank1", "rank2"])
def test_solver_points_match_brute_force_on_gf5_boxes(family):
    # the 5^8 shapes are too many for brute force: compare on seeded boxes,
    # each parameter taking 0 and two other residues
    p = 5
    template, points, _ = _FAMILIES[family]
    points = list(points(p))
    rng = random.Random(f"box:{family}")
    found = 0
    for _ in range(3):
        values = [sorted({0, *rng.sample(range(1, p), 2)}) for _ in range(8)]
        box = set(_template_shapes(template, p, values))
        expect = [c for _, c in _brute_force(family, p, values)]
        assert [c for c in points if c in box] == expect
        found += len(expect)
    assert found


@pytest.mark.parametrize("p", [3, 5])
def test_solver_finds_every_table_row_that_fits_a_template(p):
    # a planted solution: each canonical braiding that a family's template
    # takes is among the family's points (none fits the rank-two template)
    planted = {}
    for family, (template, points, _) in _FAMILIES.items():
        found = set(points(p))
        for q in _table_instances(GF(p)):
            c = tuple(map(tuple, q.space.c.a))
            if all(isinstance(x, str) or x % p == y for trow, crow in zip(template, c) for x, y in zip(trow, crow)):
                assert c in found, (family, c)
                planted[family] = planted.get(family, 0) + 1
    assert set(planted) == {"rank1", "corner"}


@pytest.mark.parametrize("p, pool", [(3, None), (5, 20000)])
@pytest.mark.parametrize("family", ["rank1", "rank2"])
def test_int_yang_baxter_matches_generic_on_case_shapes(p, pool, family, generic_yang_baxter):
    # every template shape the filter passes is re-checked by the dense
    # triple product, and so is a seeded sample of the shapes it rejects;
    # over GF(3) the filter sees every shape, over GF(5) a seeded pool
    rng = random.Random(f"{family}:{p}")
    shapes = list(_template_shapes(_FAMILIES[family][0], p))
    if pool is not None:
        shapes = rng.sample(shapes, pool)
    passes = [appendix._IntBraiding.yang_baxter(c, p) for c in shapes]
    survivors = [c for c, ok in zip(shapes, passes) if ok]
    rejected = [c for c, ok in zip(shapes, passes) if not ok]
    for c in survivors:
        assert generic_yang_baxter(c, p), c
    for c in rng.sample(rejected, 300):
        assert not generic_yang_baxter(c, p), c
    if pool is None:
        # the survivor counts of the dense triple-product filter
        assert len(survivors) == {"rank1": 207, "rank2": 88}[family]
    else:
        assert survivors


# ---------------------------------------------------------------------------
# positive control: the integer axiom check of the eliminations against the
# generic exact verification, on candidates with and without solutions
# ---------------------------------------------------------------------------

def _table_instances(field):
    """Every canonical row over field, at each allowed gamma."""
    for row in range(1, 9):
        gammas = [None] if GAMMA_RULES[row] is None else [g for g in field.elements() if gamma_allowed(row, field, g)]
        for g in gammas:
            yield row_instance(row, field, g)


def _int_rows(m):
    return [list(r) for r in m.a]


def _axioms_agree(c, beta, p):
    """The integer axiom check and verify_lifted against the dense oracle."""
    field = GF(p)
    q = QuadraticLieAlgebra(
        BraidedSpace(field, 2, Mat.from_rows(field, c), check=False), Mat.from_rows(field, beta)
    )
    fast = axiom_check(q.space)(beta)
    expect = dense_verify_lifted(q)
    assert fast == expect.ok, (c, beta)
    assert verify_lifted(q) == expect, (c, beta)
    return fast


@pytest.mark.parametrize("p", [3, 5])
def test_int_axioms_accept_every_table_row(p):
    # the eliminations report no solutions; the same check must find the
    # table rows, which are solutions, and reject their perturbations
    field = GF(p)
    for q in _table_instances(field):
        c, beta = _int_rows(q.space.c), _int_rows(q.beta)
        assert _axioms_agree(c, beta, p)
        for lam in range(2, p):
            assert _axioms_agree(c, [[x * lam % p for x in r] for r in beta], p)
        bumped = [r[:] for r in beta]
        bumped[1][0] = (bumped[1][0] + 1) % p
        assert not _axioms_agree(c, bumped, p)


@st.composite
def _candidates(draw, p):
    """(c, beta): a table row moved by a random basis change with its
    bracket, scaled or perturbed, or entirely random matrices."""
    residue = st.integers(0, p - 1)
    kind = draw(st.sampled_from(("row", "scaled", "perturbed", "random")))
    if kind == "random":
        c = draw(st.lists(st.lists(residue, min_size=4, max_size=4), min_size=4, max_size=4))
        beta = draw(st.lists(st.lists(residue, min_size=4, max_size=4), min_size=2, max_size=2))
        return c, beta
    field = GF(p)
    q = draw(st.sampled_from(list(_table_instances(field))))
    alpha = draw(
        st.lists(st.lists(residue, min_size=2, max_size=2), min_size=2, max_size=2).filter(
            lambda a: (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % p
        )
    )
    q = conjugate(q, Mat.from_rows(field, alpha))
    c, beta = _int_rows(q.space.c), _int_rows(q.beta)
    if kind == "scaled":
        lam = draw(st.integers(0, p - 1))
        beta = [[x * lam % p for x in r] for r in beta]
    elif kind == "perturbed":
        i, j, d = draw(st.integers(0, 1)), draw(st.integers(0, 3)), draw(st.integers(1, p - 1))
        beta[i][j] = (beta[i][j] + d) % p
    return c, beta


@pytest.mark.parametrize("p", [3, 5])
def test_int_axioms_match_verify_lifted(p):
    found = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_candidates(p))
    def check(cand):
        found.append(_axioms_agree(*cand, p))

    check()
    # the candidates include solutions and non-solutions
    assert any(found) and not all(found)


# ---------------------------------------------------------------------------
# the rank-two candidates: counted and solved, against the pair loop
# ---------------------------------------------------------------------------

def _left_kernel(c, field):
    """A basis of the left kernel of c + Id, as the sweep takes it."""
    return null_space(field, zip(*[[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(c)]), 4)


def _kernel_rows(c, field):
    """{a: sum a_s k_s} over the coefficient tuples a, in product order,
    for the basis k_1, k_2, k_3 of the left kernel of c + Id."""
    p = field.p
    lk = _left_kernel(c, field)
    return {a: [sum(s * k[j] for s, k in zip(a, lk)) % p for j in range(4)] for a in product(range(p), repeat=3)}


def _pair_loop_rank2(field):
    """The rank-two sweep that enumerates its candidates, the oracle of
    rank2_case_families: every independent pair of left-kernel rows (of all
    p^6), sorted into its branch by the first nonzero deciding entry if
    that entry is 1, and each pair kept tested against the axioms."""
    coeffs = list(product(range(field.p), repeat=3))
    independent = [[SparseEchelon(field, (a, b)).rank == 2 for b in coeffs] for a in coeffs]

    def candidates(c, space):
        rows = list(_kernel_rows(c, field).values())
        branches = {name: [] for name in appendix._RANK2_BRANCHES}
        for r1, ok1 in zip(rows, independent):
            for r2 in compress(rows, ok1):
                beta = (r1, r2)
                for name, (i, j) in appendix._RANK2_BRANCHES.items():
                    if x := beta[i][j]:
                        if x == 1:
                            branches[name].append(beta)
                        break
        return appendix._every_candidate(branches)

    reports = {name: BranchReport() for name in appendix._RANK2_BRANCHES}
    return appendix._sweep(field, _rank2_case_shapes(field.p), reports, candidates)


@pytest.mark.parametrize("p", [3, 5])
def test_rank2_counts_and_survivors_match_the_pair_loop(p):
    # braidings, candidate counts and solutions, in order, per branch
    field = GF(p)
    assert rank2_case_families(field) == _pair_loop_rank2(field)


def test_rank2_survivor_path_tests_the_pair_loop_candidates(monkeypatch):
    # positive control of the survivor path, which the rank-two family never
    # takes: with the pulled-back null space replaced by all of GF(3)^6, the
    # pairs it keeps, sorts into branches and tests are the pair loop's
    # candidates, in the same order, and the reports are the same
    field = GF(3)
    tested = []

    def recording(space):
        holds = axiom_check(space)

        def check(beta):
            tested.append((tuple(map(tuple, space.c.a)), tuple(map(tuple, beta))))
            return holds(beta)

        return check

    monkeypatch.setattr(appendix, "axiom_check", recording)
    expect_reports = _pair_loop_rank2(field)
    expect, tested[:] = tested[:], []
    monkeypatch.setattr(appendix, "_pulled_back_null_space", lambda space, lk: [[int(i == j) for j in range(6)] for i in range(6)])
    assert rank2_case_families(field) == expect_reports
    assert tested == expect
    assert len(expect) == sum(rep.candidates for rep in expect_reports.values()) > 0


@pytest.mark.parametrize("p, braidings", [(3, 54), (5, 202), (7, 494)])
def test_rank2_pulled_back_null_space_is_zero(p, braidings):
    # no bracket (a1 K, a2 K) but zero passes the linear axioms on any
    # braiding of the rank-two family, so no candidate survives to be tested
    field = GF(p)
    shapes = [c for c in _rank2_case_shapes(p) if braid_relation_holds(c, p)]
    assert len(shapes) == braidings
    for c in shapes:
        space = BraidedSpace(field, 2, Mat(field, c), check=False)
        assert appendix._pulled_back_null_space(space, _left_kernel(c, field)) == [], c


def _spaces_with_linear_brackets(p):
    """The table rows and the survey braidings over GF(p) whose linear
    bracket space is not zero."""
    field = GF(p)
    spaces = [q.space for q in _table_instances(field)]
    spaces += [BraidedSpace(field, 2, Mat(field, rows), check=False) for rows, _ in appendix._survey_braidings(field)]
    return [sp for sp in spaces if solve_linear_bracket_space(sp)]


@pytest.mark.parametrize("p", [3, 5])
def test_pulled_back_null_space_maps_onto_the_linear_bracket_space(p):
    # positive control of the survivor path, where the rank-two family
    # gives {0}: on spaces with linear brackets, the null space of the
    # pulled-back rows, without the independence filter, maps onto the span
    # of solve_linear_bracket_space, whatever the dimension of the kernel
    field = GF(p)
    spaces = _spaces_with_linear_brackets(p)
    kernel_dims = set()
    for sp in spaces:
        lk = _left_kernel(sp.c.a, field)
        m = len(lk)
        images = [
            [sum(a[t * m + s] * k[j] for s, k in enumerate(lk)) % p for t in range(2) for j in range(4)]
            for a in appendix._pulled_back_null_space(sp, lk)
        ]
        solver = [[x for row in b.a for x in row] for b in solve_linear_bracket_space(sp)]
        assert Subspace(field, 8, images) == Subspace(field, 8, solver), sp.c
        kernel_dims.add(m)
    assert len(spaces) > 10 and kernel_dims == {1, 2}


@pytest.mark.parametrize("p", [3, 5])
def test_rank2_branches_cover_every_rank_two_bracket(p):
    # the docstring's coverage claim: scaled by its first nonzero deciding
    # entry, every rank-two bracket is a candidate of one branch.  The pairs
    # whose five deciding entries all vanish have r2 = 0, so none of them is
    # independent; each is tested, and none independent passes
    field = GF(p)
    zero_pairs = 0
    for c in _rank2_case_shapes(p):
        if not braid_relation_holds(c, p):
            continue
        holds = axiom_check(BraidedSpace(field, 2, Mat(field, c), check=False))
        rows = _kernel_rows(c, field)
        # the deciding entries are r1[3] and all of r2
        assert sorted(appendix._RANK2_BRANCHES.values()) == [(0, 3), (1, 0), (1, 1), (1, 2), (1, 3)]
        first = [a for a, r in rows.items() if r[3] == 0]
        second = [a for a, r in rows.items() if not any(r)]
        for a1, a2 in product(first, second):
            beta = (rows[a1], rows[a2])
            zero_pairs += 1
            assert not (appendix._independent(a1, a2, p) and holds(beta)), (c, beta)
            assert SparseEchelon(field, beta).rank < 2
    assert zero_pairs


def test_every_rank_two_bracket_fails_gf3():
    # over GF(3) the claim without the branches: every independent pair of
    # left-kernel rows, normalized or not, fails the axioms
    field, p = GF(3), 3
    tested = 0
    for c in _rank2_case_shapes(p):
        if not braid_relation_holds(c, p):
            continue
        holds = axiom_check(BraidedSpace(field, 2, Mat(field, c), check=False))
        rows = _kernel_rows(c, field)
        for a1, a2 in product(rows, repeat=2):
            if appendix._independent(a1, a2, p):
                tested += 1
                assert not holds((rows[a1], rows[a2])), c
    assert tested == 54 * 26 * 24


def test_int_axioms_match_four_product_oracle(monkeypatch, four_product_axioms):
    # every candidate the GF(3) enumerations reach, plus per Yang-Baxter
    # survivor seeded random brackets and random points of its linear
    # bracket space, against the product check
    p = 3
    field = GF(p)
    seen = {"candidates": 0, "accepted": 0, "linear": 0}

    def checked(space):
        holds = axiom_check(space)
        c = tuple(map(tuple, space.c.a))
        oracle = four_product_axioms(c, p)
        rng = random.Random(repr(c))
        basis = [b.a for b in solve_linear_bracket_space(space)]
        for _ in range(8):
            beta = [[rng.randrange(p) for _ in range(4)] for _ in range(2)]
            assert holds(beta) == oracle.axioms(beta), (c, beta)
            if basis:
                s = [rng.randrange(p) for _ in basis]
                beta = [[sum(x * b[r][k] for x, b in zip(s, basis)) % p for k in range(4)] for r in range(2)]
                got = holds(beta)
                assert got == oracle.axioms(beta), (c, beta)
                seen["linear"] += got

        def check(beta):
            got = holds(beta)
            assert got == oracle.axioms(beta), beta
            seen["candidates"] += 1
            seen["accepted"] += got
            return got

        return check

    monkeypatch.setattr(appendix, "axiom_check", checked)
    # rank2_case_families tests only the candidates that pass the linear
    # axioms, so the pair loop, its oracle, tests every rank-two candidate
    reports = {**_pair_loop_rank2(field), **rank1_eliminated_branches(field)}
    assert seen["candidates"] == sum(rep.candidates for rep in reports.values()) == 19002
    # the eliminated branches hold no solution; some points of the linear
    # spaces pass, so the agreement covers both answers
    assert seen["accepted"] == 0 and seen["linear"] > 0


# ---------------------------------------------------------------------------
# positive control of the sweep: rank-one branches that are not eliminated
# ---------------------------------------------------------------------------

def _solved(template, p):
    """The braidings of a template over GF(p), from the solver."""
    return appendix._template_points(template, appendix._yang_baxter_equations(template), p)


#: the rank-one template with a unit diagonal entry
_UNIT_CORNER_TEMPLATE = (
    (0, "c01", "c02", "c03"),
    (0, 0, "c12", "c13"),
    (0, "c21", 0, "c23"),
    (0, 0, 0, 1),
)

#: the rank-one template with a free corner entry, kept where it is nonzero
_MOVED_CORNER_TEMPLATE = (
    ("c00", "c01", "c02", "c03"),
    (0, 0, "c12", "c13"),
    (0, "c21", 0, "c23"),
    (0, 0, 0, "c33"),
)


def _positive_control_sweep(p):
    """The reports of the sweep of the rank-one branches that are not
    eliminated, over GF(p)."""
    field = GF(p)
    zero = (0, 0, 0, 0)

    def unit_corner(c, space):
        return appendix._every_candidate({"unit": [((0, 1, b, 0), zero) for b in range(p)]})

    def moved_corner(c, space):
        return appendix._every_candidate({"antisymmetric": [((0, 1, p - 1, 0), zero)], "corner": [((0, 0, 0, 1), zero)]})

    moved = (c for c in _solved(_MOVED_CORNER_TEMPLATE, p) if c[0][0])
    return {
        **appendix._sweep(field, _solved(_UNIT_CORNER_TEMPLATE, p), {"unit": BranchReport()}, unit_corner),
        **appendix._sweep(field, moved, {"antisymmetric": BranchReport(), "corner": BranchReport()}, moved_corner),
    }


def _positive_control(p):
    """Sweep the rank-one branches that are not eliminated over GF(p),
    check that the solutions found are every canonical (row, gamma), and
    return the number of solutions per branch."""
    field = GF(p)
    reports = _positive_control_sweep(p)
    found = set()
    for rep in reports.values():
        for sol in rep.solutions:
            space = BraidedSpace(field, 2, Mat.from_rows(field, sol["c"]))
            q = QuadraticLieAlgebra(space, Mat.from_rows(field, sol["beta"]))
            assert verify_lifted(q).ok, sol
            res = canonical_form(q)
            found.add((res.row, None if res.gamma is None else res.gamma.v))
    expected = {
        (row, g)
        for row, rule in GAMMA_RULES.items()
        for g in ([None] if rule is None else range(p))
        if gamma_canonical(row, field, g)
    }
    assert found == expected
    return {name: len(rep.solutions) for name, rep in reports.items()}


def test_sweep_finds_every_canonical_row_on_branches_not_eliminated():
    # the loop that reports the eliminated branches empty must find every
    # canonical row where the rank-one analysis keeps solutions
    assert _positive_control(3) == {"unit": 10, "antisymmetric": 14, "corner": 9}


def test_sweep_finds_every_canonical_row_on_branches_not_eliminated_gf5():
    assert _positive_control(5) == {"unit": 28, "antisymmetric": 44, "corner": 25}
