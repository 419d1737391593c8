import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvkernel.alg import DiffForm, contract_form_into_mv
from gvkernel.calculus import exterior_derivative
from gvkernel.cli import emit, execute, fixture_problem, main
from gvkernel.dsl import (COMMANDS, DslError, parse_multivector, parse_problem,
                          parse_scalar)
from gvkernel.expr import Chart, ExprError
from gvkernel.fixtures import FIXTURE_NAMES, get_fixture

CONTACT_TEXT = """\
chart x0 x1 x2 y
vol dx0^dx1^dx2^dy
pi = (d/dx1 - x2*d/dx0)^d/dx2
E = d/dx0
run verify pair gv
"""

BROKEN_TEXT = """\
# [pi,pi] != 2 E ^ pi
chart x1 x2 x3 x4
pi = d/dx1^d/dx2 + x2*d/dx3^d/dx4
run verify
"""


def run_text(text, **kw):
    return execute(parse_problem(text), **kw)


class TestExecute:
    def test_contact_verify_pair_gv(self):
        report = run_text(CONTACT_TEXT)
        assert report.exit_status == 0
        names = [r.name for r in report.records]
        assert "jacobi.axiom1" in names and "pair.defining" in names
        ax = next(r for r in report.records if r.name == "jacobi.axiom1")
        assert ax.tier == "symbolic" and ax.passed
        assert report.printouts["alpha"] == "dy"
        assert report.printouts["beta"] == "0"
        assert report.printouts["gv"] == "0"

    def test_gv_on_poisson_fixture_prints_zero(self):
        pf = parse_problem("chart x1 x2 x3\npi = d/dx1^d/dx2\nrun gv\n")
        report = execute(pf)
        assert report.exit_status == 0
        assert report.printouts["gv"] == "0"

    def test_broken_input_fails_axiom_with_witness(self):
        report = run_text(BROKEN_TEXT)
        assert report.exit_status == 1
        bad = [r for r in report.records if not r.passed]
        assert bad and bad[0].witness is not None

    def test_hard_error_short_circuits(self):
        text = BROKEN_TEXT.replace("run verify", "run verify pair gv")
        report = run_text(text)
        names = [r.name for r in report.records]
        assert "pair.defining" not in names  # later commands skipped

    def test_empty_run_is_empty_passing_report(self):
        report = run_text("chart a b\npi = d/da^d/db\n")
        assert report.exit_status == 0
        assert report.records == []
        assert emit(report, "structured") == ""

    def test_theta_pipeline(self):
        text = ("chart x0 x1 x2\n"
                "theta = dx0 + x1*dx2\n"
                "run poissonize\n")
        report = run_text(text)
        assert report.exit_status == 0
        assert "Lambda" in report.printouts
        assert any(r.name == "input.contact" for r in report.records)

    def test_lcs_pipeline(self):
        text = ("chart x1 x2\n"
                "omega = 0\n"
                "Omega = dx1^dx2\n"
                "run poissonize\n")
        report = run_text(text)
        assert report.exit_status == 0
        assert report.printouts["pi"] == "d/dx1^d/dx2"

    def test_bridge_rejected_on_lcs_input(self):
        text = "chart x1 x2 x3\npi = d/dx1^d/dx2\nrun bridge\n"
        report = run_text(text)
        assert report.exit_status == 1
        assert any("ParityObstruction" in r.detail for r in report.records)

    def test_rescale_and_unimodular_commands(self):
        text = ("chart x1 x2 x3\n"
                "pi = d/dx1^d/dx2\n"
                "run rescale(exp(x3)) unimodular(d/dx1^d/dx2)\n")
        report = run_text(text)
        assert report.exit_status == 0
        names = [r.name for r in report.records]
        assert "rescale.distribution" in names
        assert "unimodular.psi" in names

    def test_flag_overrides_file_settings(self):
        pf = parse_problem(CONTACT_TEXT + "seed 5\n")
        r1 = execute(pf)
        r2 = execute(pf, seed=5)
        assert emit(r1, "structured") == emit(r2, "structured")

    def test_codim_zero_fixture_verify_fails(self):
        text = ("chart x0 x1 x2\n"
                "pi = (d/dx1 - x2*d/dx0)^d/dx2\n"
                "E = d/dx0\n"
                "run verify\n")
        report = run_text(text)
        assert report.exit_status == 1
        assert any("CodimOutOfRange" in r.detail for r in report.records)


class TestDeterminism:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_structured_output_is_bit_stable(self, name):
        pf = fixture_problem(get_fixture(name))
        out1 = emit(execute(pf), "structured")
        out2 = emit(execute(pf), "structured")
        assert out1 == out2
        assert out1  # every fixture runs at least one check

    def test_fixture_problem_roundtrips_through_dsl(self):
        for name in FIXTURE_NAMES:
            f = get_fixture(name)
            pf = fixture_problem(f)
            assert pf.pi == f.pi
            assert pf.E == f.E
            text = pf.canonical_text()
            assert parse_problem(text).canonical_text() == text

    def test_seed_changes_witness_free_output_only_in_witnesses(self):
        # passing fixtures have no witnesses, so seeds agree on verdicts
        pf = fixture_problem(get_fixture("contact-r3-ext"))
        a = emit(execute(pf, seed=1), "structured")
        b = emit(execute(pf, seed=2), "structured")
        assert a == b


class TestMainEntry:
    def test_fixture_flag(self, capsys):
        rc = main(["--fixture", "poisson-r3", "--format", "structured"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "check=jacobi.axiom1 tier=symbolic verdict=pass" in out

    def test_file_input(self, tmp_path, capsys):
        p = tmp_path / "problem.gvk"
        p.write_text(CONTACT_TEXT)
        rc = main([str(p)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "alpha = dy" in out

    def test_exit_1_on_check_failure(self, tmp_path, capsys):
        p = tmp_path / "broken.gvk"
        p.write_text(BROKEN_TEXT)
        assert main([str(p)]) == 1

    def test_exit_2_on_parse_error(self, tmp_path, capsys):
        p = tmp_path / "bad.gvk"
        p.write_text("chart a a\n")
        assert main([str(p)]) == 2

    def test_exit_2_on_missing_operand(self, capsys):
        assert main([]) == 2

    def test_exit_2_on_unreadable_file(self, capsys):
        assert main(["/nonexistent/path.gvk"]) == 2

    @pytest.mark.parametrize("text, message, kept", [
        ("chart " + " ".join(f"x{i}" for i in range(1, 13)) + "\n"
         "pi = d/dx1^d/dx2\nrun verify poissonize\n",
         "poissonize: the Poisson lift needs 13 variables", True),
        ("chart x1 x2 x3\npi = exp(1000 + x1^2)*d/dx1^d/dx2\nrun verify\n",
         "verify: sampling exhausted", False),
    ], ids=["lift-over-chart-cap", "sampling-exhausted"])
    def test_exit_2_on_kernel_limit(self, tmp_path, capsys, text, message, kept):
        p = tmp_path / "limit.gvk"
        p.write_text(text)
        assert main([str(p), "--format", "structured"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        # records of the commands before the failing one are kept
        assert ("check=jacobi.axiom1" in captured.out) == kept

    def test_trig_of_overflowed_value(self, tmp_path, capsys):
        # sin(inf) raised ValueError from math, a traceback with exit 1
        p = tmp_path / "trig.gvk"
        p.write_text("chart x1 x2 x3\n"
                     "pi = sin(exp(700*x1)*exp(700*x2))*d/dx1^d/dx2\nrun verify\n")
        assert main([str(p)]) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_console_script_runs(self):
        out = subprocess.run(
            [sys.executable, "-m", "gvkernel.cli", "--fixture", "lcs-model-r2",
             "--format", "structured"],
            capture_output=True, text=True)
        assert out.returncode == 0
        assert "verdict=pass" in out.stdout


class TestStructuredFormat:
    def test_failing_record_carries_witness_tuple(self):
        report = run_text(BROKEN_TEXT)
        line = next(l for l in emit(report, "structured").splitlines()
                    if "verdict=fail" in l)
        assert " witness=(" in line and line.endswith(")")
        coords = line.split("witness=(")[1].rstrip(")").split(",")
        assert len(coords) == 4
        float(coords[0])  # parseable numbers

    def test_passing_records_have_no_witness_key(self):
        report = run_text(CONTACT_TEXT)
        for line in emit(report, "structured").splitlines():
            assert "witness=" not in line


TWISTED_TEXT = """\
chart x1 x2 y
pi = exp(x1*y + x2*y^2)*d/dx1^d/dx2
E = y^2*exp(x1*y + x2*y^2)*d/dx1 - y*exp(x1*y + x2*y^2)*d/dx2
run verify pair codim1
"""


class TestNonzeroGvThroughCli:
    def test_twisted_structure_end_to_end(self):
        report = run_text(TWISTED_TEXT)
        assert report.exit_status == 0
        assert all(r.passed for r in report.records)
        assert report.printouts["gv"] == "-2*y^2*dx1^dx2^dy"
        assert report.printouts["gv_codim1"] == "-2*y^2*dx1^dx2^dy"


class TestStagesRunOnce:
    def _count(self, monkeypatch, names):
        from gvkernel import jacobi
        calls = dict.fromkeys(names, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(jacobi, name, counting(name, getattr(jacobi, name)))
        return calls

    def test_each_stage_once_per_session(self, monkeypatch):
        # contact-model-r5 runs verify pair gv codim1 poissonize bridge; the
        # two star companions are the pair's and the lift's
        calls = self._count(monkeypatch, ("verify_jacobi", "defining_pair",
                                          "poissonize", "star"))
        report = execute(fixture_problem(get_fixture("contact-model-r5")))
        assert report.exit_status == 0
        assert calls == {"verify_jacobi": 1, "defining_pair": 1,
                         "poissonize": 1, "star": 2}

    @pytest.mark.parametrize("command, error", [("bridge", "ParityObstruction"),
                                                ("codim1", "NotCodimOne")])
    def test_structure_refusal_comes_before_pair_and_lift(self, monkeypatch,
                                                          command, error):
        # an LCS structure with q = 10 on the 12-variable cap: the lift would
        # need 13 variables, so building it first would exit 2 instead
        calls = self._count(monkeypatch, ("defining_pair", "poissonize"))
        text = ("chart " + " ".join(f"x{i}" for i in range(1, 13)) + "\n"
                f"pi = d/dx1^d/dx2\nrun {command}\n")
        report = run_text(text)
        assert report.exit_status == 1
        assert [r.name for r in report.records] == [f"{command}.error"]
        assert report.records[0].detail.startswith(error + ":")
        assert calls == {"defining_pair": 0, "poissonize": 0}


def _rescaled_contact_text(extra):
    """The rank-3 contact model on 3 + extra variables, conformally rescaled
    by 2 + x1^2 + y0: (a pi, a E - iota_{da} pi); codimension q = extra."""
    chart = Chart(("x0", "x1", "x2") + tuple(f"y{i}" for i in range(extra)))
    pi = parse_multivector(chart, "(d/dx1 - x2*d/dx0)^d/dx2")
    e = parse_multivector(chart, "d/dx0")
    a = parse_scalar(chart, "2 + x1^2 + y0")
    da = exterior_derivative(DiffForm.scalar(chart, a))
    return (f"chart {' '.join(chart.vars)}\npi = {pi.scale(a)}\n"
            f"E = {e.scale(a) - contract_form_into_mv(da, pi)}\n"
            "run verify pair gv poissonize bridge\n")


class TestDefiningPairSign:
    # contact type with even q used to fail d alpha = beta ^ alpha
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rank_one_contact(self, n):
        text = (f"chart {' '.join(f'x{i}' for i in range(1, n + 1))}\n"
                "pi = 0\nE = (1 + x1^2)*d/dx1\n"
                "run verify pair gv poissonize bridge\n")
        report = run_text(text)
        assert report.exit_status == 0, emit(report)

    @pytest.mark.parametrize("extra", [1, 2, 3])
    def test_rescaled_contact_model(self, extra):
        report = run_text(_rescaled_contact_text(extra))
        assert report.exit_status == 0, emit(report)


class TestSamplingEvaluatesOnce:
    def test_each_sampled_value_is_evaluated_once(self, monkeypatch):
        # count the (point, expression) values the block evaluator computes,
        # plus top-level evaluate calls wherever a kernel module binds
        # evaluate, against the (expression, point) pairs valid_points returns
        from gvkernel import expr
        original, block, valid_points = (expr.evaluate, expr.evaluate_block,
                                         expr.Sampler.valid_points)
        counts = {"evaluate": 0, "returned": 0}
        depth = [0]

        def counting_evaluate(e, env):
            counts["evaluate"] += depth[0] == 0
            depth[0] += 1
            try:
                return original(e, env)
            finally:
                depth[0] -= 1

        def counting_block(exprs, chart, points):
            counts["evaluate"] += len(points) * len(exprs)
            return block(exprs, chart, points)

        def counting_valid_points(sampler, chart, exprs):
            out = valid_points(sampler, chart, exprs)
            counts["returned"] += len(out) * len(exprs)
            return out

        for name, mod in list(sys.modules.items()):
            if name.startswith("gvkernel") and getattr(mod, "evaluate", None) is original:
                monkeypatch.setattr(mod, "evaluate", counting_evaluate)
        monkeypatch.setattr(expr, "evaluate_block", counting_block)
        monkeypatch.setattr(expr.Sampler, "valid_points", counting_valid_points)
        fx = get_fixture("contact-model-r3")
        text = (f"chart {' '.join(fx.chart.vars)}\nvol {fx.vol}\npi = {fx.pi}\n"
                f"E = {fx.E}\nrun verify rescale(exp(x1)) bridge\n")
        report = run_text(text)
        assert report.exit_status == 0
        assert {"rescale.distribution", "bridge.rank"} <= {r.name for r in report.records}
        assert counts["evaluate"] == counts["returned"] > 0


def _coefficients(names):
    return st.sampled_from(["1"] + [c for v in names
                                    for c in (v, f"{v}^-1", f"exp({v})")])


def _sum(draw, names, basis, min_size, max_size):
    terms = draw(st.lists(st.tuples(_coefficients(names), st.sampled_from(basis)),
                          min_size=min_size, max_size=max_size))
    return " + ".join(f"{c}*{b}" for c, b in terms)


def _problem_text(draw, names, tensor_lines):
    """A problem file with the given tensor lines, run on a random command
    list (codim1 and bridge may come before pair)."""
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    args = {"rescale": st.sampled_from(["2", f"exp({names[-1]})"]),
            "unimodular": st.sampled_from([f"d/d{a}^d/d{b}" for a, b in pairs])}
    commands = []
    for cmd in draw(st.lists(st.sampled_from(COMMANDS), min_size=1, max_size=4)):
        commands.append(f"{cmd}({draw(args[cmd])})" if cmd in args else cmd)
    lines = [f"chart {' '.join(names)}", *tensor_lines, "run " + " ".join(commands)]
    return "\n".join(lines) + "\n"


def _names(draw, sizes):
    return [f"x{i}" for i in range(1, draw(st.sampled_from(sizes)) + 1)]


@st.composite
def problem_texts(draw):
    """pi and E over 2..5 variables, sums of basis terms with coefficients
    1, x_i, x_i^-1 or exp(x_i)."""
    names = _names(draw, (2, 3, 4, 5))
    pi = _sum(draw, names, [f"d/d{a}^d/d{b}" for i, a in enumerate(names)
                            for b in names[i + 1:]], 0, 3)
    e = _sum(draw, names, [f"d/d{v}" for v in names], 0, 2)
    return _problem_text(draw, names, [f"pi = {pi or 0}"] + ([f"E = {e}"] if e else []))


@st.composite
def contact_texts(draw):
    """A contact-style file: theta over 3 or 5 variables."""
    names = _names(draw, (3, 5))
    theta = _sum(draw, names, [f"d{v}" for v in names], 1, 4)
    return _problem_text(draw, names, [f"theta = {theta}"])


@st.composite
def lcs_texts(draw):
    """An LCS-style file: omega and Omega over 2 or 4 variables."""
    names = _names(draw, (2, 4))
    omega = _sum(draw, names, [f"d{v}" for v in names], 0, 2)
    big = _sum(draw, names, [f"d{a}^d{b}" for i, a in enumerate(names)
                             for b in names[i + 1:]], 1, 3)
    return _problem_text(draw, names, [f"omega = {omega or 0}", f"Omega = {big}"])


class TestExitCodeContract:
    @staticmethod
    def _check(text):
        try:
            problem = parse_problem(text)
        except (DslError, ExprError):
            return
        first = execute(problem)
        second = execute(problem)
        assert first.exit_status in (0, 1, 2)
        assert second.exit_status == first.exit_status
        assert emit(second, "structured") == emit(first, "structured")

    @settings(max_examples=60, deadline=None)
    @given(problem_texts())
    def test_every_input_gets_an_exit_code(self, text):
        self._check(text)

    @settings(max_examples=40, deadline=None)
    @given(contact_texts())
    def test_every_contact_input_gets_an_exit_code(self, text):
        self._check(text)

    @settings(max_examples=40, deadline=None)
    @given(lcs_texts())
    def test_every_lcs_input_gets_an_exit_code(self, text):
        self._check(text)
