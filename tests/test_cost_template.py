"""The per-step cost is compiled once per run for a (problem, layout, tau)
and rebound from the history at every step: the rebound cost equals one
compiled anew, bitwise; later binds leave earlier costs alone, no bind
redoes the operator algebra, and the compiled cost belongs to the run that
made it, never to the problem instance."""
import hashlib

import numpy as np
import pytest
import yaml

from vqpde import costlib, evolve, opexpr
from vqpde.ansatz import AnsatzSpec
from vqpde.cli import load_config, main, run_evolution
from vqpde.costlib import (
    DSW,
    Boussinesq,
    CamassaHolm,
    CostTemplate,
    Einstein,
    EquilibriumFluid,
    HunterSaxton,
    JointCost,
    LinTsien,
    Maxwell,
    NavierStokes,
    PartTemplate,
    PointParticle,
    ProblemError,
    build_cost,
    compile_cost,
)
from vqpde.evolve import EvolutionConfig, EvolutionError
from vqpde.opexpr import (
    MonomialTemplate,
    OpExpr,
    OpTerm,
    block_diagonal,
    compile_monomials,
    diag,
    grad_op,
    shift,
)
from vqpde.optim import SPSA
from vqpde.statevec import RegisterLayout, layout_1d

LAY = layout_1d(3, 1.0)
LAY4 = layout_1d(4, 0.7)
LAY2 = RegisterLayout((("x", 2, 1.0), ("y", 2, 0.5)))
SPEC = AnsatzSpec(3, 2)
SPEC4 = AnsatzSpec(4, 2)
TAU = 0.05
X8, X16 = np.arange(8.0), np.arange(16.0)
U, V = np.sin(2 * np.pi * X8 / 8), np.cos(2 * np.pi * X8 / 8)
U16 = np.sin(2 * np.pi * X16 / 16) + 0.3 * np.cos(6 * np.pi * X16 / 16)

# every kind, the pressure-field and external-field problems (whose arrays
# make them unhashable) among them: (problem, history, layout, spec)
CASES = {
    "couette": (NavierStokes(nu=1.0), [U + 1.2], LAY, SPEC),
    "ns-pressure-field": (NavierStokes(nu=0.4, pressure=("field", 0.1 * V)),
                          [U], LAY, SPEC),
    "ns-pressure-uniform": (NavierStokes(nu=0.5, pressure=("uniform", 0.3)),
                            [U], LAY, SPEC),
    "einstein-fluid": (Einstein(tensor=EquilibriumFluid(1.0, 0.1, 1.0, 1.0)),
                       [U + 2.0], LAY, SPEC),
    "einstein-particle": (Einstein(tensor=PointParticle(2.0, 0.5, 0.5, 3.0)),
                          [U + 2.0], LAY, SPEC),
    "maxwell-ext-fields": (Maxwell(component="z", which="B",
                                   ext_fields={"E_y": V}), [U], LAY, SPEC),
    "boussinesq": (Boussinesq(0.5, 0.5), [0.9 * U, U], LAY, SPEC),
    "lin-tsien": (LinTsien(), [U16], LAY2, SPEC4),
    "camassa-holm": (CamassaHolm(1.0), [0.9 * U16 + 1.0, U16 + 1.0], LAY4,
                     SPEC4),
    "dsw": (DSW(), [U, V + 1.5], LAY, SPEC),
    "hunter-saxton": (HunterSaxton(), [U], LAY, SPEC),
}
IDS = list(CASES)


# the small ansaetze of the run tests encode their initial data loosely
ENCODE_MISS = pytest.mark.filterwarnings("ignore:field encoding missed")


def history(case: str, step: int) -> list:
    """The frozen fields of step ``step``: every level drifts with it, and
    hunter-saxton's field is zero at even steps, so its only source's
    term-list rows drop out and come back."""
    _, hist, _, _ = CASES[case]
    if case == "hunter-saxton" and step % 2 == 0:
        return [np.zeros_like(f) for f in hist]
    return [f * (1.0 + 0.07 * step) + 0.01 * step * np.cos(np.arange(f.size)
                                                             + step)
            for f in hist]


def compiled(case: str) -> CostTemplate:
    """The case's cost compiled once, as a run's first step compiles it."""
    problem, _, layout, _ = CASES[case]
    return compile_cost(problem, layout, TAU)


def bind(template: CostTemplate, case: str, step: int):
    return template.bind(history(case, step), CASES[case][3])


def build(case: str, step: int):
    """The cost of step ``step`` compiled anew."""
    problem, _, layout, spec = CASES[case]
    return build_cost(problem, history(case, step), layout, TAU, spec)


def arrays(cost) -> dict:
    """Every array a step's cost is evaluated from, by name, the shot
    families included."""
    beta, norm, weight, measured = cost.families
    out = {"b": cost.b, "m_perm": cost.template.m_form.perm,
           "m_weight": cost.template.m_form.weight,
           "m_hat": cost.template.m_hat,
           "beta": beta, "norm": norm, "weight": weight,
           "measured": np.array(measured)}
    for k, p in enumerate(cost.parts):
        out[f"part{k}_b"] = p.joint.b[0]
        out[f"part{k}_m_weight"] = p.template.m.constant.weight
    return out


def snapshot(cost) -> dict:
    return {k: (a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes())
            for k, a in arrays(cost).items()}


@pytest.mark.parametrize("case", IDS)
def test_rebound_cost_equals_a_fresh_compile_bitwise(case):
    """Five consecutive steps bound from one template equal, array by array
    and bit by bit, the same steps each compiled anew."""
    template = compiled(case)
    for step in range(5):
        cost, anew = bind(template, case, step), build(case, step)
        assert snapshot(cost) == snapshot(anew), (case, step)
        assert cost.offset == anew.offset
        assert [p.serialize_terms() for p in cost.parts] \
            == [p.serialize_terms() for p in anew.parts]


@pytest.mark.parametrize("case", IDS)
def test_later_binds_leave_an_earlier_cost_unchanged(case):
    """A cost bound at step k keeps its b, M and families bitwise while
    steps k + 1 to k + 4 bind from the same template."""
    template = compiled(case)
    bind(template, case, 0).families  # transforms the template's M
    kept = bind(template, case, 1)
    before = snapshot(kept)
    later = [bind(template, case, step) for step in range(2, 6)]
    for cost in later:
        cost.families
    assert snapshot(kept) == before
    assert not any(np.array_equal(kept.b, c.b) for c in later[1::2])


class Counter:
    def __init__(self):
        self.calls = 0

    def wrap(self, fn):
        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        return counted


@pytest.mark.parametrize("case", IDS)
def test_only_the_first_build_compiles(case, monkeypatch):
    """Across five consecutive steps bound from one compile, shot families
    and term lists included, the compile expands and compiles the kind's
    operators; the binds after the first make no ``expand_product``,
    ``compile_monomials`` or template compile call."""
    counts = {name: Counter() for name in ("expand", "monomials", "template")}
    for mod in (opexpr, costlib):
        monkeypatch.setattr(mod, "expand_product",
                            counts["expand"].wrap(mod.expand_product))
        monkeypatch.setattr(mod, "compile_monomials",
                            counts["monomials"].wrap(mod.compile_monomials))
    monkeypatch.setattr(MonomialTemplate, "compile", staticmethod(
        counts["template"].wrap(MonomialTemplate.compile)))
    template = compiled(case)
    for p in bind(template, case, 0).parts:
        p.joint.families, p.term_list()
    first = {name: c.calls for name, c in counts.items()}
    assert first["expand"] > 0 and first["template"] > 0
    for step in range(1, 5):
        for p in bind(template, case, step).parts:
            p.joint.families, p.term_list()
    assert {name: c.calls for name, c in counts.items()} == first


def test_one_template_serves_every_ansatz(monkeypatch):
    """The template does not depend on the ansatz: a second spec binds from
    the one the first bound from."""
    template = compiled("dsw")
    bind(template, "dsw", 0)
    calls = Counter()
    monkeypatch.setattr(MonomialTemplate, "compile", staticmethod(
        calls.wrap(MonomialTemplate.compile)))
    cost = template.bind(history("dsw", 1),
                         AnsatzSpec(3, 4, rotation_axes=("Y", "Z")))
    assert calls.calls == 0 and cost.parts[0].spec.layers == 4


def dsw_sweep(tmp_path):
    """A config of two one-step dsw jobs, and its path."""
    path = tmp_path / "dsw.yaml"
    path.write_text(yaml.safe_dump({
        "problem": {"kind": "dsw"},
        "grid": {"axes": [{"label": "x", "qubits": 3, "delta": 1.0}]},
        "initial": {"u": {"samples": (0.1 * U).tolist()},
                    "v": {"samples": (0.1 * V + 1.0).tolist()}},
        "evolution": {"tau": 0.02, "n_steps": 1},
        "optimizer": [{"method": "gd", "eta": 0.1, "max_iters": 2},
                      {"method": "gd", "eta": 0.2, "max_iters": 2}],
    }))
    return path


def count_compiles(monkeypatch, kind) -> Counter:
    """Counts the compiles of ``kind``'s cost: one builder call each."""
    compiles = Counter()
    monkeypatch.setitem(costlib._BUILDERS, kind,
                        compiles.wrap(costlib._BUILDERS[kind]))
    return compiles


@ENCODE_MISS
def test_each_job_of_a_sweep_compiles_its_own_cost(tmp_path, monkeypatch):
    """``load_config``'s validating build leaves nothing behind for the
    sweep: each job compiles its cost once, at its first step."""
    cfg = load_config(dsw_sweep(tmp_path))
    compiles = count_compiles(monkeypatch, DSW)
    per_job = []
    for ev in cfg["evolutions"]:
        run_evolution(cfg["problem"], cfg["initial"], ev, cfg["layout"],
                      cfg["specs"][0])
        per_job.append(compiles.calls - sum(per_job))
    assert per_job == [1, 1]


@ENCODE_MISS
@pytest.mark.parametrize("n_steps, n_compiles", [(0, 0), (1, 1), (3, 1)])
def test_a_run_compiles_once_at_its_first_step(n_steps, n_compiles,
                                               monkeypatch):
    """A run of no steps compiles nothing; any other compiles exactly
    once."""
    problem, hist, layout, spec = CASES["dsw"]
    compiles = count_compiles(monkeypatch, DSW)
    cfg = EvolutionConfig(tau=TAU, n_steps=n_steps,
                          optimizer=SPSA(max_iters=1))
    assert len(evolve.run(problem, hist, cfg, layout, spec)) == n_steps + 1
    assert compiles.calls == n_compiles


def state(problem) -> list:
    """A problem instance's attributes, by name and identity."""
    return [(k, id(v)) for k, v in vars(problem).items()]


@ENCODE_MISS
def test_no_build_or_run_stores_anything_on_the_problem(tmp_path,
                                                        monkeypatch):
    """A build, a run, a failed run and a config's sweep leave the problem
    instance as constructed: the compiled cost is the caller's."""
    problem, hist, layout, spec = CASES["ns-pressure-field"]
    before = state(problem)
    build_cost(problem, hist, layout, TAU, spec)
    assert state(problem) == before
    cfg = EvolutionConfig(tau=TAU, n_steps=2, optimizer=SPSA(max_iters=1))
    evolve.run(problem, hist, cfg, layout, spec)
    assert state(problem) == before

    def fail(spec, row):
        raise EvolutionError("readout failed")

    with monkeypatch.context() as patched:
        patched.setattr(evolve, "readout", fail)
        with pytest.raises(EvolutionError, match="readout failed"):
            evolve.run(problem, hist, cfg, layout, spec)
    assert state(problem) == before

    cfg = load_config(dsw_sweep(tmp_path))
    assert vars(cfg["problem"]) == vars(DSW()) == {}
    for ev in cfg["evolutions"]:
        run_evolution(cfg["problem"], cfg["initial"], ev, cfg["layout"],
                      cfg["specs"][0])
        assert vars(cfg["problem"]) == {}


def shots_config(seed: int) -> EvolutionConfig:
    return EvolutionConfig(tau=0.01, n_steps=2,
                           optimizer=SPSA(a=0.05, c=0.05, max_iters=3,
                                          seed=seed),
                           mode="shots", shots=200, seed=seed)


@ENCODE_MISS
def test_a_run_does_not_inherit_an_earlier_runs_template(monkeypatch):
    """Two shot-mode runs on one problem instance each compile the template
    and its transform of M at their first step: their operator algebra, their
    trajectories and their costs repeat."""
    expand = Counter()
    for mod in (opexpr, costlib):
        monkeypatch.setattr(mod, "expand_product",
                            expand.wrap(mod.expand_product))
    problem, hist, layout, spec = CASES["camassa-holm"]
    seen = []
    for _ in range(2):
        before = expand.calls
        traj = evolve.run(problem, hist, shots_config(3), layout, spec)
        seen.append((expand.calls - before,
                     [r.cost for r in traj.records[1:]],
                     np.concatenate(traj.fields("u")).tobytes()))
    assert seen[0][0] > 0 and seen[0] == seen[1]


def test_an_m_that_reads_a_field_is_rejected_by_name():
    """M is the same at every step: a part whose M reads a field is
    rejected when it is compiled, naming the part and the field."""
    m_op = OpExpr.identity() + OpExpr((OpTerm(0.3, (diag("w"), shift("x"))),))
    with pytest.raises(ProblemError, match="hand-b: M reads w"):
        PartTemplate("hand-b", LAY, m_op, (grad_op("x", 1.0),), ("u",))


def hand_parts(m_op, src) -> tuple:
    """Two parts compiled anew, whose sources read the diagonal field w."""
    return (PartTemplate("a", LAY, m_op, (src,), ("u",)),
            PartTemplate("b", LAY, m_op, (src, m_op), ("v", "u")))


def test_parts_joined_by_hand_equal_a_template_bind():
    """Part templates compiled anew and joined by hand into a
    ``JointCost`` equal the template's bind: M and b are the block-diagonal
    stack of the parts compiled anew, and the families those of the parts
    alone, bitwise."""
    m_op = OpExpr.identity() + OpExpr.single(shift("x"), 0.3)
    src = grad_op("x", 1.0) + OpExpr((OpTerm(0.5, (diag("w"),)),))
    template = CostTemplate("hand", hand_parts(m_op, src),
                            lambda f: {"u": f[0], "v": f[1], "w": f[1] + 1.5})
    for step in range(3):
        u, v = history("dsw", step)
        binds = {"w": v + 1.5}
        cost = template.bind([u, v], SPEC)
        by_hand = JointCost(CostTemplate("hand", hand_parts(m_op, src)), SPEC,
                            {"u": u, "v": v, **binds})
        m = block_diagonal([compile_monomials(m_op, LAY, binds)] * 2, 8)
        b = [np.real_if_close(compile_monomials(src, LAY, binds).apply(
            u[None, :])[0], tol=1e6)]
        b.append(np.real_if_close(
            compile_monomials(src, LAY, binds).apply(v[None, :])[0]
            + compile_monomials(m_op, LAY, binds).apply(u[None, :])[0],
            tol=1e6))
        alone = [p.joint.families for p in by_hand.parts]
        for c in (cost, by_hand):
            assert snapshot(c) == snapshot(by_hand)
            assert np.array_equal(c.template.m_form.perm, m.perm)
            assert np.array_equal(c.template.m_form.weight, m.weight)
            assert np.array_equal(c.b, np.array(b))
            for got, *want in zip(c.families, *alone):
                assert np.array_equal(got, np.concatenate(want))


@pytest.mark.parametrize("samples", [{"v": U}, {"u": U[:4]}])
def test_samples_must_match_the_templates_sources(samples):
    """One grid's samples under every source's name: a missing or short
    array is rejected by the part's name rather than dropping a source
    from b."""
    part = PartTemplate("one-source", LAY, OpExpr.identity(),
                        (OpExpr.identity(),), ("u",))
    n = len(samples.get("u", ()))
    with pytest.raises(ProblemError,
                       match=f"one-source: array 'u' of {n} samples for 8 "):
        JointCost(CostTemplate("one-source", (part,)), SPEC, samples)


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, True, np.bool_(1),
                                 "0.05", 0.05 + 0j, None])
def test_tau_must_be_a_positive_finite_real(tau):
    """A bool, a non-real or a non-finite tau is rejected by name."""
    with pytest.raises(ProblemError, match="tau must be positive and finite"):
        build_cost(Einstein(), [U], LAY, tau, SPEC)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_history_field_is_rejected(bad):
    field = np.full(8, 0.5)
    field[3] = bad
    with pytest.raises(ProblemError, match="history field 0 is not finite"):
        build_cost(NavierStokes(), [field], LAY, TAU, SPEC)
    with pytest.raises(ProblemError, match="history field 1 is not finite"):
        build_cost(CamassaHolm(), [U, field], LAY, TAU, SPEC)


# sha256 of `vqpde terms <pde>`, recorded before the template existed
TERMS_SHA256 = {
    "couette":
        "cde426d397edd7bd50bc47cfa9b0c09ad4b577f2dbb8fb68a91c73a9960762c9",
    "navier-stokes":
        "8c538feadb6c94ecfe4fe5b6f61b0007a738ff36c907e28cb2dffe422f768670",
    "einstein":
        "b69b22a4c777701dbc2006bacea66b04d5a6625f894553748da66ad677de6a4d",
    "maxwell":
        "af10187ba46112028ccb34f7d081a3e1c9c1f3a79bf29d952c20444cc370b69d",
    "boussinesq":
        "9ded70d07cf97aaf94deed5476d1368f23a1a68ac837b9c6fcd1c26673710370",
    "lin-tsien":
        "14406277251241fde8b9d6e9cd4ec1c030c25181a9741c5e877499a232c727c8",
    "camassa-holm":
        "80e205f7aa0b7135eec6f65318054185b8ea0e8ed8487ceb99f8738e3e1d7018",
    "dsw":
        "c5bb0f0e397e1507300a46e4b5b0c4601e7db6c84ee80fdc24e7def0057e3d4e",
    "hunter-saxton":
        "c371515cbb6bf56b18e29f8071299f5300c7537d511e8ca9981fcf511f6415e4",
}


@pytest.mark.parametrize("pde", sorted(TERMS_SHA256))
def test_terms_output_is_pinned(pde, capsys):
    assert main(["terms", pde]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TERMS_SHA256[pde]
