"""Loop expansion, diamond classification and the thin-pattern check battery."""

import functools
import itertools
import random
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import items
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
    INFINITY,
    ComponentRecord,
    LoopConfig,
    PatternParams,
    ThinReport,
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
F9 = FieldParams.parse_spec("3^2:1,0,1")
F25 = FieldParams.parse_spec("5^2:2,0,1")
F3125 = FieldParams(5, 5, (4, 4, 0, 0, 0, 1))
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


def echo(desc, spec, cfg):
    """The parameters `thinlie analyze` echoes for this switch."""
    return {"p": spec.p, "n": desc.heights.n2, "s": spec.s, "case": spec.case.value,
            "field": desc.field.spec_string, "pi": str(cfg.pi),
            "sigma": str(cfg.sigma), "N": spec.N, "q": spec.q}


BIG_ECHO = echo(AZ, BIG, BIG_CFG)


def big_report():
    return run_analysis(AZ, BIG_BASIS, BIG_X, BIG_Y, BIG_ECHO, cfg=BIG_CFG)


def test_loop_config_validation():
    with pytest.raises(ValueError):
        LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_X, 10)
    with pytest.raises(ValueError):
        LoopConfig(AZ, BIG_BASIS, AZ.zero(), BIG_Y, 10)
    with pytest.raises(ValueError):
        # degree-2 vector is not an admissible generator
        LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_BASIS.vectors[Label(0, -1, 0)], 10)


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
        for mono, c in items(u):
            out = out + self.images[mono, v is self.X].scale(c)
        return out


def field_elements(field):
    return st.lists(st.integers(0, field.p - 1), min_size=field.m,
                    max_size=field.m).map(field.element)


def block_records(field, targets, coeffs, tail=None):
    """cfg and records of a block: L_1 = <u_1, u_2> whose images A_k =
    [u_k, X] and B_k = [u_k, Y] are the combinations of `targets` target
    monomials given by coeffs, A_1, B_1, A_2, B_2 in turn; L_2 is their
    span.  u_1 = x^(0,0) and u_2 = x^(0,1), or with a nonzero tail
    u_1 = x^(0,0) + tail*x^(0,1): then L_1's first echelon row holds the
    second row's lead, and the images of u_1 mix the coeffs above."""
    h = Heights(field.p, 1, 1)

    def mono(i, j):
        return AlgebraElement.from_monomial(field, h, Monomial(i, j))

    X, Y = mono(2, 0), mono(2, 1)
    images = {}
    it = iter(coeffs)
    for u in (Monomial(0, 0), Monomial(0, 1)):
        for is_x in (True, False):
            images[u, is_x] = AlgebraElement(
                field, h, [(Monomial(1, k), next(it)) for k in range(targets)])
    alg = ActionAlgebra(field, h, X, images)
    cfg = types.SimpleNamespace(alg=alg, X=X, Y=Y)
    cur = SparseEchelon(field, h)
    cur.insert(mono(0, 0) if tail is None else mono(0, 0) + mono(0, 1).scale(tail))
    cur.insert(mono(0, 1))
    images = [(alg.bracket(u, X), alg.bracket(u, Y)) for u in cur.basis()]
    nxt = SparseEchelon(field, h)
    for bx, by in images:
        nxt.insert(bx)
        nxt.insert(by)
    return cfg, [ComponentRecord(1, cur.rank, cur.basis(), cur, images),
                 ComponentRecord(2, nxt.rank, nxt.basis(), nxt)]


@st.composite
def covering_blocks(draw):
    """Blocks with one or two target monomials over F_3, F_5, F_9, F_25 or
    F_27, their coefficients zero half the time, so that singular and
    degenerate blocks are common."""
    field = draw(st.sampled_from([F3, F5, F9, F25, F27]))
    targets = draw(st.integers(1, 2))
    coeff = st.one_of(st.just(field.zero()), field_elements(field))
    coeffs = draw(st.lists(coeff, min_size=4 * targets, max_size=4 * targets))
    return field, targets, coeffs


def f5_block(*coeffs):
    return F5, len(coeffs) // 4, [F5.element(c) for c in coeffs]


# (block, first failing line or None), one per branch of the closed form:
# A_1, B_1, A_2, B_2, each with `targets` coordinates
NAMED_BLOCKS = [
    # 2 -> 1, kernel (0:1): u_2 maps to zero
    (f5_block(1, 0, 0, 0), "u2"),
    # 2 -> 1, kernel (1:0): u_1 maps to zero
    (f5_block(0, 0, 1, 0), "u1"),
    # 2 -> 1, kernel (1:4): A_1 + 4 A_2 = 0
    (f5_block(1, 0, 1, 0), "u1 + 4 u2"),
    # 2 -> 1, nonsingular
    (f5_block(1, 0, 0, 1), None),
    # 2 -> 2, gamma = det(A_2|B_2) = 0
    (f5_block(0, 1, 1, 0, 1, 0, 0, 0), "u2"),
    # 2 -> 2, zero discriminant, double root c = 4: (c - 4)^2 = c^2 + 2c + 1
    (f5_block(1, 0, 0, 1, 1, 0, 0, 1), "u1 + 4 u2"),
    # 2 -> 2, roots c = 1 and c = 2 of c^2 + 2c + 2: the smaller is named
    (f5_block(1, 0, 0, 2, 0, 1, 4, 2), "u1 + u2"),
    # 2 -> 2, discriminant 4*3 = 2, a nonsquare mod 5
    (f5_block(1, 0, 0, 1, 0, 1, 3, 0), None),
    # 2 -> 0
    (f5_block(0, 0, 0, 0), "u2"),
]


@pytest.mark.parametrize("block, line", NAMED_BLOCKS)
def test_covering_names_the_first_failing_line(block, line):
    cfg, records = block_records(*block)
    got = check_covering(cfg, 1, records)
    assert got == covering_by_lines(cfg, 1, records)
    if line is None:
        assert got is None
    else:
        u1, u2 = records[0].vectors
        want = {"u1": u1, "u2": u2, "u1 + u2": u1 + u2, "u1 + 4 u2": u1 + u2.scale(4)}[line]
        assert got["representative"] == want.text()


def test_covering_whole_plane_kernel():
    """Images that vanish under a line L_2 put every line of L_1 in the
    kernel; the first in the walk is u_2.  expand_loop cannot build this
    block, since it spans L_2 by the images."""
    cfg, records = block_records(*f5_block(0, 0, 0, 0))
    line = block_records(*f5_block(1, 0, 0, 0))[1][1]
    records[1] = line
    got = check_covering(cfg, 1, records)
    assert got == covering_by_lines(cfg, 1, records)
    assert got["representative"] == records[0].vectors[1].text()


@settings(max_examples=150, deadline=None)
@given(covering_blocks())
@example(NAMED_BLOCKS[4][0])
@example(NAMED_BLOCKS[5][0])
def test_covering_matches_line_oracle_random_blocks(block):
    cfg, records = block_records(*block)
    assert check_covering(cfg, 1, records) == covering_by_lines(cfg, 1, records)


def centralizer_by_pairs(cfg, records):
    """Centralizer of L_1 in L_1 as a set of pairs, by trying every pair:
    each (a, b) with a[u, X] + b[u, Y] = 0 for every basis vector u."""
    elements = list(cfg.alg.field.elements())
    return {(a, b) for a in elements for b in elements
            if all((bx.scale(a) + by.scale(b)).is_zero() for bx, by in records[0].images)}


def span_of_pairs(field, basis):
    elements = list(field.elements())
    return {(sum((c * a for c, (a, _) in zip(cs, basis)), field.zero()),
             sum((c * b for c, (_, b) in zip(cs, basis)), field.zero()))
            for cs in itertools.product(elements, repeat=len(basis))}


@st.composite
def overlapping_blocks(draw):
    """A covering block and a nonzero tail for u_1."""
    block = draw(covering_blocks())
    return block, draw(field_elements(block[0]).filter(lambda c: not c.is_zero()))


@settings(max_examples=100, deadline=None)
@given(overlapping_blocks())
@example((f5_block(1, 1, 0, 1, 2, 0, 0, 3), F5.one()))
def test_overlapping_leads_component(drawn):
    """L_1's first echelon row holds the second row's lead, and so does
    L_2's when it is a plane and A_1 meets both targets: the covering
    verdict and named line equal the line walk, the centralizer equals
    the pairs that kill every image, and ==, contains and reduce answer
    for the spans."""
    block, tail = drawn
    field = block[0]
    cfg, records = block_records(*block, tail=tail)
    cur, nxt = records
    first = cur.echelon.rows[Monomial(0, 0)]
    assert first.coeff(Monomial(0, 1)) == tail and Monomial(0, 1) in cur.echelon.rows
    a1, lead = cur.images[0][0], Monomial(1, 0)
    if nxt.dim == 2 and not a1.coeff(lead).is_zero():
        assert nxt.echelon.rows[lead] == a1.scale(a1.coeff(lead).inverse())
    assert check_covering(cfg, 1, records) == covering_by_lines(cfg, 1, records)
    kernel = centralizer_chain(cfg, records, 1)[1]
    assert span_of_pairs(field, kernel) == centralizer_by_pairs(cfg, records)
    plain = SparseEchelon(field, cur.echelon.heights)
    for mono in (Monomial(0, 1), Monomial(0, 0)):
        plain.insert(AlgebraElement.from_monomial(field, plain.heights, mono))
    assert plain.rows != cur.echelon.rows and plain == cur.echelon
    for row in plain.basis():
        assert cur.echelon.contains(row) and cur.echelon.reduce(row).is_zero()
    images = [w for pair in cur.images for w in pair]
    reversed_span = SparseEchelon(field, nxt.echelon.heights)
    for w in reversed(images):
        reversed_span.insert(w)
    assert reversed_span == nxt.echelon
    for w in images:
        assert nxt.echelon.contains(w) and nxt.echelon.reduce(w).is_zero()
    outside = AlgebraElement.from_monomial(field, nxt.echelon.heights, Monomial(2, 2))
    assert not nxt.echelon.contains(outside) and nxt.echelon.reduce(outside) == outside


def failing_plane_blocks(field, seed, count):
    """count seeded 2 -> 2 blocks over field whose covering fails at a
    line u_1 + c*u_2 (gamma != 0), drawn until found."""
    rng = random.Random(seed)
    blocks = []
    while len(blocks) < count:
        coeffs = [field.element([rng.randrange(field.p) for _ in range(field.m)])
                  for _ in range(8)]
        cfg, records = block_records(field, 2, coeffs)
        a2, b2 = records[0].images[1]
        gamma = a2.coeff((1, 0)) * b2.coeff((1, 1)) - a2.coeff((1, 1)) * b2.coeff((1, 0))
        if (records[1].dim == 2 and not gamma.is_zero()
                and check_covering(cfg, 1, records) is not None):
            blocks.append((cfg, records))
    return blocks


def test_covering_matches_line_oracle_f3125_failures():
    for cfg, records in failing_plane_blocks(F3125, 0, 4):
        assert check_covering(cfg, 1, records) == covering_by_lines(cfg, 1, records)


def test_failing_covering_walks_no_lines(monkeypatch):
    """A failing check names its line from the closed form: it takes a few
    items of FieldParams.elements (a nonsquare for the square root), not
    the q + 1 lines of L_i."""
    blocks = failing_plane_blocks(F3125, 1, 4)
    taken, elements = [], FieldParams.elements

    def counted(self):
        for x in elements(self):
            taken.append(x)
            yield x
    monkeypatch.setattr(FieldParams, "elements", counted)
    for cfg, records in blocks:
        taken.clear()
        assert check_covering(cfg, 1, records) is not None
        assert len(taken) <= 5


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
    rep = run_analysis(GH, PRIME_BASIS, PRIME_X, PRIME_Y, echo(GH, PRIME, PRIME_CFG),
                       cfg=PRIME_CFG)
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
    assert list(rep.checks) == [
        "thinness", "covering", "diamond_positions", "finite_slot_positions",
        "type_progression", "second_diamond", "normalization", "first_centralizer_chain",
        "second_centralizer_chain", "periodicity", "dimension_sum"]
    assert all(c.passed for c in rep.checks.values())
    assert sum(r.dim for r in rep.components[: BIG.N]) == AZ.dim


def test_corrupted_generator_is_caught():
    rep = run_analysis(AZ, BIG_BASIS, BIG_X, BIG_X + BIG_Y, BIG_ECHO, cfg=BIG_CFG)
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


def test_centralizer_chain_frozen():
    cfg = LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_Y, 10)
    recs = expand_loop(cfg)
    chain = centralizer_chain(cfg, recs, 3)
    assert chain == {1: [], 2: [], 3: []}


def test_periodicity():
    """periodicity_failures lists every i with L_{i+period} != L_i that
    the records reach, the last one included: at period 5 it lists the
    degrees where the spans differ by containment, and with the top
    record replaced by the one below it, period N fails at that i only."""
    cfg = LoopConfig(AZ, BIG_BASIS, BIG_X, BIG_Y, 2 * BIG.N + 2)
    recs = expand_loop(cfg)
    assert periodicity_failures(recs, BIG.N) == []

    def same(a, b):
        return a.rank == b.rank and all(b.contains(v) for v in a.basis())
    assert periodicity_failures(recs, 5) == [
        i for i in range(1, len(recs) - 4) if not same(recs[i - 1].echelon, recs[i + 4].echelon)]
    assert periodicity_failures(recs, 5) != []
    assert not same(recs[-1].echelon, recs[-2].echelon)
    assert periodicity_failures(recs[:-1] + [recs[-2]], BIG.N) == [len(recs) - BIG.N]


def test_run_analysis_degree_floor():
    with pytest.raises(ValueError):
        run_analysis(AZ, BIG_BASIS, BIG_X, BIG_Y, BIG_ECHO, max_degree=BIG.N, cfg=BIG_CFG)


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
