"""Loop expansion, diamond classification and the thin-pattern check battery."""

import functools
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlie import loopalg
from thinlie.dpalgebra import AlgebraElement, Heights, Monomial, SparseEchelon
from thinlie.ffield import FieldParams
from thinlie.grading import (
    GradingCase,
    GradingSpec,
    Label,
    SwitchConfig,
    build_closed_basis,
)
from thinlie.liealg import AlgebraDescriptor, Family
from thinlie.loopalg import (
    CHECK_ORDER,
    INFINITY,
    ComponentRecord,
    LoopConfig,
    PatternParams,
    ThinReport,
    binary_form_anisotropic,
    centralizer_chain,
    check_covering,
    classify_component,
    expand_loop,
    normalization_check,
    periodicity_failures,
    render_text,
    run_analysis,
)

F27 = FieldParams(3, 3, (2, 2, 0, 1))
F3 = FieldParams.prime(3)
F5 = FieldParams.prime(5)
H21 = Heights(3, 2, 1)

AZ = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F27, H21)
BIG = GradingSpec(GradingCase.BIG_FIELD, H21, 1)
BIG_CFG = SwitchConfig(F27, F27.one(), F27.gen(), 1)
BIG_BASIS = build_closed_basis(AZ, BIG, BIG_CFG)
BIG_X = BIG_BASIS.vectors[Label(-1, 0, 0)]
BIG_Y = BIG_BASIS.vectors[Label(1, -1, 0)]

GH = AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F3, H21)
PRIME = GradingSpec(GradingCase.PRIME_FIELD, H21, 1, pi_residue=1)
PRIME_CFG = SwitchConfig(F3, F3.one(), F3.one(), 1)
PRIME_BASIS = build_closed_basis(GH, PRIME, PRIME_CFG)
PRIME_X = PRIME_BASIS.vectors[Label(-1, 0, 1)]
PRIME_Y = PRIME_BASIS.vectors[Label(1, -1, 2)]


def big_report():
    return run_analysis(AZ, BIG_BASIS, BIG_X, BIG_Y, cfg=BIG_CFG)


def test_loop_config_validation():
    with pytest.raises(ValueError):
        LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_X, 10)
    with pytest.raises(ValueError):
        LoopConfig(AZ, BIG_BASIS, AZ.zero(), BIG_Y, 10)
    with pytest.raises(ValueError):
        # degree-2 vector is not an admissible generator
        LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_BASIS.vectors[Label(0, -1, 0)], 10)
    cfg = LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_Y)
    assert cfg.max_degree == 3 * BIG.N


def test_expand_loop_dims_frozen():
    cfg = LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_Y, 8)
    recs = expand_loop(cfg)
    assert [r.dim for r in recs] == [2, 1, 2, 1, 2, 1, 2, 1]
    assert [r.degree for r in recs] == list(range(1, 9))


def covering_by_lines(cfg, i, records):
    """Brute-force covering: bracket a representative of every line of L_i
    with X and Y and compare the span of the images with L_{i+1}."""
    cur, nxt = records[i - 1], records[i]
    if cur.dim == 0 or cur.dim > 2:
        return None
    if cur.dim == 1:
        reps = list(cur.vectors)
    else:
        u1, u2 = cur.vectors
        reps = [u2] + [u1 + u2.scale(c) for c in cfg.alg.field.elements()]
    for u in reps:
        bx = cfg.alg.bracket(u, cfg.X)
        by = cfg.alg.bracket(u, cfg.Y)
        ech = SparseEchelon(cfg.alg.field, cfg.alg.heights)
        ech.insert(bx)
        ech.insert(by)
        if nxt.dim == 0 or ech != nxt.echelon:
            return {
                "degree": i,
                "representative": u.text(),
                "image_with_X": bx.text(),
                "image_with_Y": by.text(),
            }
    return None


def assert_covering_matches_lines(cfg, records):
    verdicts = []
    for i in range(1, len(records)):
        got = check_covering(cfg, i, records)
        assert got == covering_by_lines(cfg, i, records), i
        verdicts.append(got)
    return verdicts


@functools.cache
def prime_field_setup(p, pi):
    """Descriptor, basis, X and Y of the prime-field case p, n = 1, s = 1;
    pi = 0 is the negative control."""
    field = FieldParams.prime(p)
    h = Heights(p, 2, 1)
    desc = AlgebraDescriptor(Family.GRADED_HAMILTONIAN, field, h)
    spec = GradingSpec(GradingCase.PRIME_FIELD, h, 1, pi_residue=pi)
    cfg = SwitchConfig(field, field.one(), field.element(pi), 1,
                       allow_zero_pi=True)
    basis = build_closed_basis(desc, spec, cfg)
    deg1 = {lab.j: lab for lab in basis.active_labels
            if basis.degrees[lab] == 1}
    X, Y = basis.vectors[deg1[-1]], basis.vectors[deg1[spec.q - 2]]
    return desc, basis, spec, X, Y


def test_covering_holds_on_good_config():
    cfg = LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_Y, 3 * BIG.N + 1)
    verdicts = assert_covering_matches_lines(cfg, expand_loop(cfg))
    assert verdicts == [None] * 3 * BIG.N


@pytest.mark.parametrize("p", [3, 5])
def test_covering_matches_line_oracle_negative_control(p):
    desc, basis, spec, X, Y = prime_field_setup(p, 0)
    cfg = LoopConfig(desc, basis, X, Y, 3 * spec.N + 1)
    verdicts = assert_covering_matches_lines(cfg, expand_loop(cfg))
    failing = [v for v in verdicts if v is not None]
    assert [v["degree"] for v in failing] == [spec.q - 1]


@pytest.mark.parametrize("p, pi", [(3, 1), (5, 2)])
def test_covering_matches_line_oracle_rotated_generators(p, pi):
    """(X + cY, Y) spans the same components as (X, Y) but changes every
    2x2 block the closed form reads."""
    desc, basis, spec, X, Y = prime_field_setup(p, pi)
    for c in desc.field.elements():
        cfg = LoopConfig(desc, basis, X + Y.scale(c), Y, 3 * spec.N + 1)
        verdicts = assert_covering_matches_lines(cfg, expand_loop(cfg))
        assert verdicts == [None] * 3 * spec.N, c


class ActionAlgebra:
    """Stand-in for an AlgebraDescriptor in check_covering: bracketing with
    X or Y applies a given linear map, so arbitrary 2x2 blocks, including
    two-dimensional successors, can be fed to the check."""

    def __init__(self, field, heights, X, images):
        self.field, self.heights, self.X = field, heights, X
        self.images = images  # (monomial, generator is X) -> image

    def bracket(self, u, v):
        out = AlgebraElement.zero(self.field, self.heights)
        for mono, c in u.items():
            out = out + self.images[mono, v is self.X].scale(c)
        return out


def field_elements(field):
    return st.lists(st.integers(0, field.p - 1), min_size=field.m,
                    max_size=field.m).map(field.element)


@st.composite
def covering_blocks(draw):
    """Two basis vectors u_1, u_2 whose images under X and Y are random
    combinations of one or two target monomials."""
    field = draw(st.sampled_from([F3, F5, F27]))
    targets = draw(st.integers(1, 2))
    coeffs = draw(st.lists(field_elements(field), min_size=4 * targets,
                           max_size=4 * targets))
    return field, targets, coeffs


@settings(max_examples=150, deadline=None)
@given(covering_blocks())
def test_covering_matches_line_oracle_random_blocks(block):
    field, targets, coeffs = block
    h = Heights(field.p, 1, 1)

    def mono(i, j):
        return AlgebraElement.from_monomial(field, h, Monomial(i, j))

    X, Y = mono(2, 0), mono(2, 1)
    u1, u2 = mono(0, 0), mono(0, 1)
    images = {}
    it = iter(coeffs)
    for u in (Monomial(0, 0), Monomial(0, 1)):
        for is_x in (True, False):
            images[u, is_x] = AlgebraElement(
                field, h, [(Monomial(1, k), next(it)) for k in range(targets)])
    alg = ActionAlgebra(field, h, X, images)
    cfg = types.SimpleNamespace(alg=alg, X=X, Y=Y)
    cur = SparseEchelon(field, h)
    cur.insert(u1)
    cur.insert(u2)
    images = [(alg.bracket(u, X), alg.bracket(u, Y)) for u in cur.basis()]
    nxt = SparseEchelon(field, h)
    for bx, by in images:
        nxt.insert(bx)
        nxt.insert(by)
    records = [ComponentRecord(1, cur.rank, cur.basis(), cur, images),
               ComponentRecord(2, nxt.rank, nxt.basis(), nxt)]
    assert check_covering(cfg, 1, records) == covering_by_lines(cfg, 1, records)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([F3, F5, F27]).flatmap(
    lambda f: st.tuples(field_elements(f), field_elements(f), field_elements(f))))
def test_anisotropy_matches_projective_roots(form):
    alpha, beta, gamma = form
    field = alpha.params
    points = [(field.zero(), field.one())] + [
        (field.one(), c) for c in field.elements()]
    no_root = all(
        not (alpha * a * a + beta * a * b + gamma * b * b).is_zero()
        for a, b in points)
    assert binary_form_anisotropic(alpha, beta, gamma) == no_root


def test_classification_frozen():
    cfg = LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_Y, 16)
    recs = expand_loop(cfg)
    assert classify_component(cfg, 1, recs).kind == "first"
    d3 = classify_component(cfg, 3, recs)
    assert (d3.kind, d3.dtype) == ("genuine", F27.element(-1))
    d5 = classify_component(cfg, 5, recs)
    assert (d5.kind, d5.dtype) == ("genuine", INFINITY)
    # nu = -1 + 1/pi
    d9 = classify_component(cfg, 9, recs)
    assert (d9.kind, d9.dtype) == ("genuine", F27.parse_element("t^2+1"))
    d15 = classify_component(cfg, 15, recs)
    assert (d15.kind, d15.dtype) == ("genuine", F27.parse_element("2t^2"))


def test_fake_diamonds_frozen():
    rep = run_analysis(GH, PRIME_BASIS, PRIME_X, PRIME_Y, cfg=PRIME_CFG)
    assert rep.passed
    kinds = {d.degree: (d.kind, d.dtype) for d in rep.diamonds}
    assert kinds[3] == ("genuine", F3.element(2))
    assert kinds[9] == ("fake", 0)
    assert kinds[15] == ("fake", 1)
    assert kinds[21] == ("genuine", F3.element(2))
    assert kinds[5] == ("genuine", INFINITY)
    assert sum(r.dim for r in rep.components[: PRIME.N]) == GH.dim


def test_pattern_params():
    pp = PatternParams.for_grading(BIG, BIG_CFG, F27)
    assert (pp.q, pp.finite_every) == (3, 3)
    assert pp.delta == F27.gen().inverse()
    pre = PatternParams.for_grading(
        GradingSpec(GradingCase.PRESWITCH_AZ, H21, 1), None, F27
    )
    assert (pre.finite_every, pre.delta) == (9, F27.zero())
    zero_cfg = SwitchConfig(F3, F3.one(), F3.zero(), 1, allow_zero_pi=True)
    assert PatternParams.for_grading(PRIME, zero_cfg, F3).delta is None


def test_full_battery_passes():
    rep = big_report()
    assert rep.passed
    assert list(rep.checks) == list(CHECK_ORDER)
    assert all(c.passed for c in rep.checks.values())
    assert sum(r.dim for r in rep.components[: BIG.N]) == AZ.dim


def test_corrupted_generator_is_caught():
    rep = run_analysis(AZ, BIG_BASIS, BIG_X, BIG_X + BIG_Y, cfg=BIG_CFG)
    assert not rep.passed
    failing = {name for name, c in rep.checks.items() if not c.passed}
    assert failing == {
        "diamond_positions",
        "type_progression",
        "second_diamond",
        "normalization",
    }
    # the component spans do not see the generator change
    for name in ("thinness", "covering", "periodicity", "dimension_sum"):
        assert rep.checks[name].passed


def test_normalization_check():
    cfg = LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_Y, 10)
    recs = expand_loop(cfg)
    assert normalization_check(cfg, recs).passed
    bad = LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_X + BIG_Y, 10)
    out = normalization_check(bad, expand_loop(bad))
    assert not out.passed
    assert "[V,Y,Y]" in out.counterexample


def test_normalization_reuses_the_slot_brackets(monkeypatch):
    """run_analysis brackets [V,X,X], [V,X,Y], [V,Y,X] and [V,Y,Y] of
    L_{q-1} once: classify_component makes them at slot q and
    normalization_check reads them without a bracket of its own."""
    brackets, inside = [], [False]
    bracket, check = AlgebraDescriptor.bracket, loopalg.normalization_check

    def counted(self, u, v):
        if inside[0]:
            brackets.append(1)
        return bracket(self, u, v)

    def normalization(*args):
        inside[0] = True
        try:
            return check(*args)
        finally:
            inside[0] = False
    monkeypatch.setattr(AlgebraDescriptor, "bracket", counted)
    monkeypatch.setattr(loopalg, "normalization_check", normalization)
    rep = run_analysis(AZ, BIG_BASIS, BIG_X, BIG_Y, cfg=BIG_CFG)
    assert rep.checks["normalization"].passed
    assert brackets == []


def test_centralizer_chain_frozen():
    cfg = LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_Y, 10)
    recs = expand_loop(cfg)
    chain = centralizer_chain(cfg, recs, 3)
    assert chain == {1: [], 2: [], 3: []}


def test_periodicity():
    cfg = LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_Y, 2 * BIG.N + 2)
    recs = expand_loop(cfg)
    assert periodicity_failures(recs, BIG.N) == []
    assert periodicity_failures(recs, 5) != []


def test_run_analysis_degree_floor():
    with pytest.raises(ValueError):
        run_analysis(AZ, BIG_BASIS, BIG_X, BIG_Y, max_degree=BIG.N, cfg=BIG_CFG)


def test_report_round_trip_and_determinism():
    rep = big_report()
    text = rep.to_json()
    assert text.endswith("\n")
    assert ThinReport.from_json(text) == rep
    again = big_report()
    assert again.to_json() == text
    assert render_text(again) == render_text(rep)


def test_render_text_frozen():
    rep = big_report()
    lines = render_text(rep).splitlines()
    assert lines[0] == (
        "case=big-field p=3 n=1 s=1 N=18 q=3 field=3^3:2,2,0,1 sigma=1 pi=t"
    )
    assert lines[1] == "1:first"
    assert lines[2] == "3:2"
    assert lines[3] == "5:Infinity"
    assert "9:t^2+1" in lines
    assert lines[-1] == "overall: pass"
    assert "check thinness: pass" in lines


def test_report_json_shape():
    rep = big_report()
    data = rep.to_dict()
    assert set(data) == {"params", "components", "diamonds", "checks"}
    assert data["components"][0] == {"degree": 1, "dim": 2}
    assert data["diamonds"][0] == {"degree": 1, "kind": "first", "type": None}
    assert data["diamonds"][1] == {"degree": 3, "kind": "genuine", "type": "2"}
    assert data["checks"]["thinness"] == {"pass": True}
    info = data["checks"]["second_centralizer_chain"]
    assert info == {"pass": True, "informational": True}
