import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvkernel
from gvkernel import cli, expr, jacobi
from gvkernel.alg import DiffForm, MultiVector, contract_form_into_mv
from gvkernel.calculus import exterior_derivative
from gvkernel.cli import emit, execute, fixture_problem, main
from gvkernel.dsl import (ARGUMENTS, COMMANDS, MAX_NESTING, MAX_POINTS, parse_multivector,
                          parse_problem, parse_scalar)
from gvkernel.expr import Chart, CheckFailure, KernelError, Sampler
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

# E is zero, written so that only sampling sees it: verify passes
TRIG_TEXT = """\
chart x1 x2 x3
pi = d/dx1^d/dx2
E = (sin(x3)^2 + cos(x3)^2 - 1)*d/dx3
run verify
"""

# finite only for x1 < -0.9919...: 1 point of 3, or of 2, in the domain at
# seed 2, and 1 of 64 at the default seed 0
THIN_RESCALE_TEXT = """\
chart x1 x2 x3
pi = d/dx1^d/dx2
run verify rescale(exp(100000*x1 + 99900))
"""

TINY_LCS_TEXT = """\
chart x1 x2 x3
pi = 1/100000*d/dx1^d/dx2
E = 1/100000*d/dx3
run verify
"""


GOLDEN = pathlib.Path(__file__).parent / "golden"


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

    @pytest.mark.parametrize("text", [
        "chart x0 x1 x2\n"
        "theta = exp(x2)*(x1*dx2 + exp(x0)*dx1 - 1*dx2 + x0*dx2)\nrun poissonize\n",
        "chart x1 x2 x3\ntheta = (1 - x1^2 - x2^2)*dx3 + x1*dx2\nrun poissonize\n",
    ], ids=["exp-factors", "vanishing-factor"])
    def test_contact_forms_poissonize(self, text):
        # pi and E printed over squared denominators gave float residuals of
        # [Lambda,Lambda] and [pi,pi] - 2E^pi above tol on both files
        report = run_text(text)
        assert report.exit_status == 0
        assert [r.name for r in report.records] == ["input.contact",
                                                    "poissonization.poisson"]

    @pytest.mark.parametrize("text, error", [
        ("chart x1 x2 x3\ntheta = dx1\nrun poissonize\n",
         "NotContact: theta ^ (d theta)^m vanishes"),
        ("chart x1 x2 x3 x4\nomega = 0\nOmega = dx1^dx2\nrun poissonize\n",
         "NotLCS: Omega^(n/2) vanishes"),
    ], ids=["closed-theta", "degenerate-Omega"])
    def test_degenerate_input_fails_its_nonvanishing_check(self, tmp_path, capsys,
                                                           text, error):
        # the solve's volume is the checked top power, so a degenerate input
        # is a failed check (exit 1), never a volume error (exit 2)
        p = tmp_path / "degenerate.gvk"
        p.write_text(text)
        assert main([str(p)]) == 1
        captured = capsys.readouterr()
        assert f"[FAIL] poissonize.error         tier=numeric   {error}" in captured.out
        assert captured.err == ""

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

    def test_flag_overrides_one_setting_and_keeps_the_others(self, monkeypatch):
        samplers = []
        init = cli._Session.__init__
        monkeypatch.setattr(cli._Session, "__init__", lambda session, problem, sampler:
                            samplers.append(sampler) or init(session, problem, sampler))
        text = BROKEN_TEXT + "seed 3\ntol 1e-7\n"
        flagged = execute(parse_problem(text), seed=None, points=16, tol=None)
        filed = execute(parse_problem(text + "points 16\n"))
        assert emit(flagged, "structured") == emit(filed, "structured")
        assert samplers == [Sampler(seed=3, points=16, tol=1e-7)] * 2

    @pytest.mark.parametrize("flag", [{"seed": 3}, {"points": 16}, {"tol": 1e-7}])
    def test_flag_equal_to_the_file_setting_changes_nothing(self, flag):
        pf = parse_problem(BROKEN_TEXT + "seed 3\npoints 16\ntol 1e-7\n")
        assert emit(execute(pf, **flag), "structured") == emit(execute(pf), "structured")

    def test_codim_zero_fixture_verify_fails(self):
        text = ("chart x0 x1 x2\n"
                "pi = (d/dx1 - x2*d/dx0)^d/dx2\n"
                "E = d/dx0\n"
                "run verify\n")
        report = run_text(text)
        assert report.exit_status == 1
        assert any("CodimOutOfRange" in r.detail for r in report.records)


class TestCommandTables:
    def test_every_command_has_a_session_method(self):
        for name in COMMANDS:
            assert callable(getattr(cli._Session, f"cmd_{name}", None)), name

    def test_every_argument_reader_names_a_command(self):
        assert set(ARGUMENTS) <= set(COMMANDS)


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


def _nested(level, depth):
    """`pi` with a coefficient nested `depth` levels deep in `level`."""
    body = level * depth + "x1" + ")" * (depth * level.count("("))
    return f"chart x1 x2 x3\npi = {body}*d/dx1^d/dx2\nrun verify\n"


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

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "latin.gvk"
        p.write_bytes(b"\xff\xfe chart x1\n")
        assert main([str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"gvkernel: {p}: ")
        assert "can't decode" in captured.err

    @pytest.mark.parametrize("text, message, kept", [
        ("chart " + " ".join(f"x{i}" for i in range(1, 13)) + "\n"
         "pi = d/dx1^d/dx2\nrun verify poissonize\n",
         "poissonize: the Poisson lift needs 13 variables", True),
        (_nested("(", 1000), f"line 2, col 106: nesting deeper than the limit of {MAX_NESTING}",
         False),
        (_nested("sin(", 1000), f"line 2, col 406: nesting deeper than the limit of {MAX_NESTING}",
         False),
        (_nested("-", 1000), f"line 2, col 106: nesting deeper than the limit of {MAX_NESTING}",
         False),
        # a malformed command argument is an input error like any other line
        ("chart x1 x2 x3\npi = d/dx1^d/dx2\nrun verify rescale(d/dx1)\n",
         "rescale: line 3, col 20: expected a scalar expression", True),
        ("chart x1 x2 x3\npi = d/dx1^d/dx2\nrun verify unimodular(dx1)\n",
         "unimodular: line 3, col 23: expected a multivector expression", True),
        ("chart x1 x2 x3\npi = d/dx1^d/dx2\nrun verify rescale(x1 +)\n",
         "rescale: line 3, col 24: unexpected 'end of input'", True),
        ("chart x1 x2 x3\npi = d/dx1^d/dx2\nrun verify rescale(1 + bogus)\n",
         "rescale: line 3, col 24: unknown identifier 'bogus'", True),
        # ... read before the structure it rescales is verified
        (BROKEN_TEXT.replace("run verify", "run rescale(d/dx1)"),
         "rescale: line 4, col 13: expected a scalar expression", False),
    ], ids=["lift-over-chart-cap", "nested-parens",
            "nested-calls", "nested-minus", "rescale-argument",
            "unimodular-argument", "truncated-argument", "unknown-in-argument",
            "argument-before-structure"])
    def test_exit_2_on_kernel_limit(self, tmp_path, capsys, text, message, kept):
        p = tmp_path / "limit.gvk"
        p.write_text(text)
        assert main([str(p), "--format", "structured"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        # records of the commands before the failing one are kept
        assert ("check=jacobi.axiom1" in captured.out) == kept
        assert "verdict=fail" not in captured.out

    @pytest.mark.parametrize("text, record, message, kept", [
        ("chart x1 x2 x3\npi = exp(1000 + x1^2)*d/dx1^d/dx2\nrun verify\n",
         "verify.error", "only 0 of 64 sample points", False),
        (THIN_RESCALE_TEXT, "rescale.error", "only 1 of 64 sample points", True),
        (THIN_RESCALE_TEXT.replace("run", "seed 2\npoints 3\nrun"), "rescale.error",
         "only 1 of 3 sample points are in the domain, below the floor of 2", True),
    ], ids=["sampling-exhausted", "thin-rescale", "thin-at-the-floor"])
    def test_exit_1_below_the_sample_floor(self, tmp_path, capsys, text, record,
                                           message, kept):
        # "sampling exhausted" used to exit 2, and a 1-of-64 sample used to pass
        p = tmp_path / "thin.gvk"
        p.write_text(text)
        assert main([str(p)]) == 1
        captured = capsys.readouterr()
        assert f"[FAIL] {record}" in captured.out
        assert f"InsufficientSamples: {message}" in captured.out
        assert ("jacobi.axiom1" in captured.out) == kept
        assert captured.err == ""

    def test_thin_volume_is_a_setup_error(self, tmp_path, capsys):
        # the volume is sampled before any command runs; it used to pass on 1 point
        p = tmp_path / "thin.gvk"
        p.write_text(TRIG_TEXT.replace("pi =", "vol exp(100000*x1 + 99900)*dx1^dx2^dx3\npi ="))
        assert main([str(p)]) == 2
        captured = capsys.readouterr()
        assert "only 1 of 64 sample points are in the domain" in captured.err
        assert "Traceback" not in captured.err

    def test_thin_rescale_at_the_floor_passes(self, tmp_path, capsys):
        # 1 valid point of 2 requested is exactly ceil(2 / 2)
        p = tmp_path / "thin.gvk"
        p.write_text(THIN_RESCALE_TEXT.replace("run", "seed 2\npoints 2\nrun"))
        assert main([str(p)]) == 0
        assert "rescale.distribution" in capsys.readouterr().out

    def test_tiny_e_outside_the_image_is_not_regular(self, tmp_path, capsys):
        # E ^ pi = 1e-10 d/dx1^d/dx2^d/dx3 is below tol but not zero in normal
        # form, and E is 1e-5 away from Im pi-sharp: the span guard decides
        p = tmp_path / "tiny.gvk"
        p.write_text(TINY_LCS_TEXT)
        assert main([str(p)]) == 1
        out = capsys.readouterr().out
        assert "NotRegular: E leaves Im pi-sharp at a sample point  witness=" \
            "(-0.8445079856176487,-0.9956998620724677,0.9523958730926798)" in out

    @pytest.mark.parametrize("level", ["(", "sin(", "-"])
    def test_nesting_at_the_bound_runs(self, tmp_path, capsys, level):
        p = tmp_path / "deep.gvk"
        p.write_text(_nested(level, MAX_NESTING))
        assert main([str(p)]) == 0

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"),
        ("--points", "0"), ("--points", "-3"), ("--seed", "-1"), ("--seed", "1.5"),
        ("--points", str(MAX_POINTS + 1)),
    ])
    def test_exit_2_on_bad_setting_flag(self, tmp_path, capsys, flag, value):
        # each used to run: a false AxiomViolation (tol <= 0), a vanishing
        # volume (tol nan/inf), exhausted sampling (points <= 0), a negative seed
        p = tmp_path / "trig.gvk"
        p.write_text(TRIG_TEXT)
        with pytest.raises(SystemExit) as stop:
            main([str(p), flag, value])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: bad {flag[2:]} '{value}'" in captured.err
        assert "Traceback" not in captured.err

    def test_exit_2_on_infinite_tol_line(self, tmp_path, capsys):
        p = tmp_path / "trig.gvk"
        p.write_text(TRIG_TEXT.replace("run verify", "tol inf\nrun verify"))
        assert main([str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 4, col 5: bad tol 'inf'" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag", [False, True])
    def test_points_capped(self, tmp_path, capsys, flag):
        # an uncapped count grew the sample until memory ran out
        p = tmp_path / "trig.gvk"
        for points, want in ((MAX_POINTS, 0), (MAX_POINTS + 1, 2)):
            if flag:
                p.write_text(TRIG_TEXT)
                try:
                    status = main([str(p), "--points", str(points)])
                except SystemExit as stop:
                    status = stop.code
            else:
                p.write_text(TRIG_TEXT.replace("run verify", f"points {points}\nrun verify"))
                status = main([str(p)])
            assert status == want
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
        assert f"bad points '{MAX_POINTS + 1}' (expected integer in 1..{MAX_POINTS})" \
            in captured.err
        assert captured.out == ""

    def test_setting_flags_override_the_file(self, tmp_path, capsys):
        p = tmp_path / "trig.gvk"
        p.write_text(TRIG_TEXT)
        assert main([str(p), "--seed", "3", "--points", "16", "--tol", "1e-6"]) == 0

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


def _error_classes():
    """Every error class gvkernel exports, plus every JacobiError subclass."""
    found = {obj for obj in map(gvkernel.__dict__.get, gvkernel.__all__)
             if isinstance(obj, type) and issubclass(obj, Exception)}
    todo = [jacobi.JacobiError]
    while todo:
        cls = todo.pop()
        found.add(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


WITNESS = (0.25, -0.5, 0.75)


def _instance(cls):
    if cls is jacobi.CodimOutOfRange:
        return cls(3, 3)
    if cls is jacobi.AxiomViolation:
        return cls("[pi,E] = 0", WITNESS)
    if issubclass(cls, CheckFailure):
        return cls("check failed", WITNESS)
    return cls("input refused")


class TestErrorMapping:
    """Exit 1 or 2 is read off the error hierarchy, for every error class."""

    @pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
    def test_every_error_is_a_kernel_error(self, cls):
        assert issubclass(cls, KernelError)

    @pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_error_from_a_stage_maps_to_its_exit_code(self, tmp_path, capsys,
                                                      monkeypatch, cls, fmt):
        err = _instance(cls)

        def failing_stage(*args, **kwargs):
            raise err
        monkeypatch.setattr(jacobi, "verify_jacobi", failing_stage)
        p = tmp_path / "problem.gvk"
        p.write_text(CONTACT_TEXT)
        rc = main([str(p), "--format", fmt])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if issubclass(cls, CheckFailure):
            assert rc == 1
            assert captured.err == ""
            line = captured.out.splitlines()[0]
            if fmt == "text":
                assert line.startswith("[FAIL] verify.error")
                assert f"{cls.__name__}: {err}" in line
            else:
                assert line.startswith("check=verify.error tier=numeric verdict=fail")
            assert ("witness=(0.25,-0.5,0.75)" in line) == (err.witness is not None)
        else:
            assert rc == 2
            assert captured.err == f"gvkernel: verify: {err}\n"
            assert captured.out == ("" if fmt == "structured"
                                    else f"input error: verify: {err}\n")


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
    def _count(self, monkeypatch, names, module=jacobi):
        calls = dict.fromkeys(names, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return calls

    def test_each_stage_once_per_session(self, monkeypatch):
        # contact-model-r5 runs verify pair gv codim1 poissonize bridge; the
        # two star companions are the pair's and the lift's, and the two
        # wedge powers are (d beta)^q and Lambda^(m+1): P comes with the
        # structure and Lambda^(m+2) is Lambda^(m+1) ^ Lambda
        calls = self._count(monkeypatch, ("verify_jacobi", "defining_pair",
                                          "poissonize", "star", "power"))
        report = execute(fixture_problem(get_fixture("contact-model-r5")))
        assert report.exit_status == 0
        assert calls == {"verify_jacobi": 1, "defining_pair": 1,
                         "poissonize": 1, "star": 2, "power": 2}

    @pytest.mark.parametrize("path", ["contact-form-n5.gvk", "lcs-form-r4.gvk"])
    def test_input_form_walked_once(self, monkeypatch, path):
        # the solves take every power of d theta or Omega from one walk; the
        # only other walk is the rank loop's, over pi
        walked = []
        for name in ("power", "divided_powers"):
            def recording(b, *args, fn=getattr(jacobi, name)):
                walked.append(type(b))
                return fn(b, *args)
            monkeypatch.setattr(jacobi, name, recording)
        assert run_text((GOLDEN / path).read_text()).exit_status == 0
        assert walked == [DiffForm, MultiVector]

    @pytest.mark.parametrize("fixture", ["contact-model-r5", "lcs-model-r4"])
    def test_model_sessions_expand_no_product(self, monkeypatch, fixture):
        # every product these sessions make is a constant times a plain
        # operand or two plain monomials, so none goes through the full
        # expansion
        calls = self._count(monkeypatch, ("_raw_mul",), module=expr)
        assert execute(fixture_problem(get_fixture(fixture))).exit_status == 0
        assert calls == {"_raw_mul": 0}

    def test_divisions_are_prefiltered(self, monkeypatch):
        # this run meets 424 groups of terms sharing a wrapped-polynomial
        # reciprocal; most cannot divide, and the spread test skips those
        # without calling the division
        calls = self._count(monkeypatch, ("_exact_div",), module=expr)
        assert run_text((GOLDEN / "contact-form-n5.gvk").read_text()).exit_status == 0
        assert calls["_exact_div"] <= 100

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

        def counting_block(exprs, sample):
            counts["evaluate"] += sample.rows * len(exprs)
            return block(exprs, sample)

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
                f"E = {fx.E}\nrun verify rescale(1 - x1 + x1^2) bridge\n")
        report = run_text(text)
        assert report.exit_status == 0
        assert {"rescale.distribution", "bridge.rank"} <= {r.name for r in report.records}
        assert counts["evaluate"] == counts["returned"] > 0


class TestBoundsDecideNonvanishing:
    @pytest.mark.parametrize("fixture", ["poisson-r3", "rescaled-poisson-r3",
                                         "lcs-model-r2", "lcs-model-r4"])
    def test_lcs_model_session_never_samples(self, monkeypatch, fixture):
        # pi^m, the volume, the star companion and the lift's t^-1 factors
        # are bounded away from 0 over the sample box, and every identity
        # is zero in normal form
        calls = []
        valid_points = expr.Sampler.valid_points
        monkeypatch.setattr(expr.Sampler, "valid_points",
                            lambda *a: calls.append(a) or valid_points(*a))
        problem = fixture_problem(get_fixture(fixture))
        assert [c for c, _ in problem.commands] == ["verify", "pair", "gv", "codim1",
                                                   "poissonize"]
        assert execute(problem).exit_status == 0
        assert calls == []

    def test_coefficient_beyond_float_range_exits_1(self, tmp_path, capsys):
        p = tmp_path / "huge.gvk"
        p.write_text("chart x1 x2 x3\npi = 10^400*x1*d/dx1^d/dx2\nrun verify\n")
        assert main([str(p)]) == 1
        out = capsys.readouterr().out
        assert "InsufficientSamples: only 0 of 64 sample points" in out


class TestZeroSetsOfMeasureZero:
    # each of pi, the rescale factor and the volume coefficient vanishes on
    # the plane x1 = 0 inside the sample box, where no sample point lands
    @pytest.mark.xfail(strict=True,
                       reason="sampling cannot see a zero set of measure zero; "
                              "a sign-change certificate would (ROADMAP)")
    @pytest.mark.parametrize("text, want", [
        ("chart x1 x2 x3\npi = x1*d/dx1^d/dx2\nrun verify pair gv\n", 1),
        ("chart x1 x2 x3\npi = d/dx1^d/dx2\nrun rescale(x1)\n", 1),
        ("chart x1 x2 x3\nvol x1*dx1^dx2^dx3\npi = d/dx1^d/dx2\nrun verify\n", 2),
    ], ids=["regular", "rescale", "vol"])
    def test_a_factor_that_changes_sign_is_caught(self, tmp_path, capsys, text, want):
        p = tmp_path / "problem.gvk"
        p.write_text(text)
        assert main([str(p)]) == want


DEFECT_FILES = sorted((pathlib.Path(__file__).parent / "defects").glob("*.gvk"))


def _defect_exits(path):
    """The exit a defect file gives today and the exit wanted after the fix,
    from its header."""
    text = path.read_text(encoding="utf-8")
    today = re.search(r"^# exit today: (\d)$", text, re.M)
    wanted = re.search(r"^# exit wanted: (\d)$", text, re.M)
    assert today and wanted, f"{path.name} lacks an exit header"
    return int(today.group(1)), int(wanted.group(1))


@pytest.mark.parametrize("path", DEFECT_FILES, ids=lambda p: p.stem)
def test_known_defect_header_names_two_exits(path):
    today, wanted = _defect_exits(path)
    assert today != wanted


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defects: each file's header names its FOUND line")
@pytest.mark.parametrize("path", DEFECT_FILES, ids=lambda p: p.stem)
def test_known_defect_exits_as_wanted(path):
    # a fix shows as an XPASS, and the file's mark must then come off; an
    # exit that is neither today's nor the wanted one is a plain failure,
    # not an expected one
    today, wanted = _defect_exits(path)
    got = main([str(path)])
    if got not in (today, wanted):
        pytest.fail(f"{path.name} exits {got}, not today's {today} "
                    f"or the wanted {wanted}")
    assert got == wanted


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
        except KernelError:
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
