"""Command-line front end: run a problem file or a registry fixture and emit
a verification report.

Exit codes: 0 all requested checks passed, 1 at least one check failed,
2 the input could not be parsed or set up.  1 or 2 is read off the error
hierarchy: a `CheckFailure` a command raises becomes a failing
`<command>.error` record, any other `KernelError` an input error.
Structured output is one
`check=<name> tier=<tier> verdict=<pass|fail> [witness=(...)]` line per
record and is byte-identical across runs with the same seed.

Each pipeline stage runs at most once per session: the structure (pi, E)
is verified once, its defining pair and its Poisson lift are each built
once, and the commands are views of these three stages.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional

from . import jacobi
from .alg import DiffForm
from .dsl import (ARGUMENTS, DslError, ProblemFile, check_command, parse_problem,
                  parse_setting)
from .duality import volume_context
from .expr import SETTINGS, CheckFailure, CheckResult, KernelError, Sampler
from .fixtures import FIXTURE_NAMES, Fixture, get_fixture
from .jacobi import DefiningPair, JacobiStructure, Poissonization


@dataclass
class Report:
    records: List[CheckResult] = field(default_factory=list)
    printouts: Dict[str, str] = field(default_factory=dict)
    input_error: Optional[str] = None

    @property
    def exit_status(self) -> int:
        if self.input_error is not None:
            return 2
        return 0 if all(r.passed for r in self.records) else 1


def _fmt_witness(w) -> str:
    return "(" + ",".join(str(float(c)) for c in w) + ")"


def emit(report: Report, fmt: str = "text") -> str:
    if fmt == "structured":
        lines = []
        for r in report.records:
            line = f"check={r.name} tier={r.tier} verdict={'pass' if r.passed else 'fail'}"
            if r.witness is not None:
                line += f" witness={_fmt_witness(r.witness)}"
            lines.append(line)
        return "\n".join(lines) + ("\n" if lines else "")
    out = []
    if report.input_error is not None:
        out.append(f"input error: {report.input_error}")
    for r in report.records:
        mark = "ok " if r.passed else "FAIL"
        line = f"[{mark}] {r.name:24s} tier={r.tier:8s}"
        if r.detail:
            line += f"  {r.detail}"
        if r.witness is not None:
            line += f"  witness={_fmt_witness(r.witness)}"
        out.append(line)
    for key, val in report.printouts.items():
        out.append(f"{key} = {val}")
    if report.records:
        n_bad = sum(not r.passed for r in report.records)
        out.append(f"{len(report.records)} checks, {n_bad} failed")
    return "\n".join(out) + ("\n" if out else "")


class _Session:
    """Executes a problem file's command list against the kernel.

    The structure is verified without enforcing its codimension, so the
    lift, which needs only the axioms, shares it; the commands that need
    0 < q < n refuse it through `foliated`.  Refusals that need the
    structure only come before a pair or a lift is built.
    """

    def __init__(self, problem: ProblemFile, sampler: Sampler):
        self.problem = problem
        self.sampler = sampler
        self.report = Report()
        self.chart = problem.chart
        vol = problem.vol if problem.vol is not None else \
            DiffForm.basis(self.chart, range(self.chart.n))
        self.ctx = volume_context(self.chart, vol, sampler)

    # stages ------------------------------------------------------------------
    @cached_property
    def structure(self) -> JacobiStructure:
        p = self.problem
        if p.style == "pi":
            pi, e = p.pi, p.E
        else:
            if p.style == "theta":
                pi, e = jacobi.contact_to_jacobi(self.chart, p.theta, self.sampler)
                name, detail = "input.contact", "theta -> (pi, E)"
            else:
                pi, e = jacobi.lcs_to_jacobi(self.chart, p.omega1, p.omega2,
                                             self.sampler)
                name, detail = "input.lcs", "(omega, Omega) -> (pi, E)"
            self.report.records.append(CheckResult(name, "numeric", True,
                                                   detail=detail))
            self.report.printouts["pi"] = str(pi)
            self.report.printouts["E"] = str(e)
        return jacobi.verify_jacobi(self.ctx, pi, e, self.sampler)

    @property
    def foliated(self) -> JacobiStructure:
        """The structure, refused unless 0 < q < n."""
        jacobi.require_codim(self.structure)
        return self.structure

    @cached_property
    def pair(self) -> DefiningPair:
        return jacobi.defining_pair(self.foliated, self.ctx, self.sampler)

    @cached_property
    def lift(self) -> Poissonization:
        return jacobi.poissonize(self.structure, self.sampler)

    # commands ----------------------------------------------------------------
    def run(self) -> Report:
        for command in self.problem.commands:
            name, text = command
            # a command built in code is a plain pair: its errors name no position
            origin = getattr(command, "origin", (0, 0))
            try:
                # a command built in code obeys the rule a file's `run` line does
                check_command(name, text is not None)
                # a malformed argument is an input error, read before the command runs
                args = () if text is None else (ARGUMENTS[name](self.chart, text, *origin),)
                getattr(self, f"cmd_{name}")(*args)
            except CheckFailure as e:
                self.report.records.append(CheckResult(
                    f"{name}.error", "numeric", False, e.witness,
                    f"{type(e).__name__}: {e}"))
                break  # hard error: later commands depend on this one
            except KernelError as e:  # the input is beyond what the kernel takes
                self.report.input_error = f"{name}: {e}"
                break
        return self.report

    def cmd_verify(self):
        self.report.records.extend(self.foliated.checks)

    def cmd_pair(self):
        self.report.records.extend(self.pair.checks)
        self.report.printouts["alpha"] = str(self.pair.alpha)
        self.report.printouts["beta"] = str(self.pair.beta)
        self.report.printouts["gv"] = str(self.pair.gv)

    def cmd_gv(self):
        self.report.records.append(next(c for c in self.pair.checks
                                        if c.name == "pair.gv_closed"))
        self.report.printouts["gv"] = str(self.pair.gv)

    def cmd_codim1(self):
        j = self.foliated
        jacobi.require_codim_one(j)
        g, check = jacobi.gv_codim1(j, self.ctx, self.pair, self.sampler)
        self.report.records.append(check)
        self.report.printouts["gv_codim1"] = str(g)

    def cmd_poissonize(self):
        self.report.records.append(self.lift.poisson_check)
        self.report.printouts["Lambda"] = str(self.lift.lam)

    def cmd_bridge(self):
        j = self.foliated
        jacobi.require_contact(j)
        br = jacobi.check_poissonization_bridge(j, self.ctx, self.pair,
                                                self.lift, self.sampler)
        self.report.records.extend(br.checks)
        self.report.printouts["A"] = str(br.A)
        self.report.printouts["B"] = str(br.B)

    def cmd_rescale(self, a):
        self.report.records.extend(jacobi.conformal_rescale(
            self.foliated, a, self.ctx, self.sampler).checks)

    def cmd_unimodular(self, u):
        psi, check = jacobi.unimodularity(self.ctx, u, self.sampler)
        self.report.records.append(check)
        self.report.printouts["psi"] = str(psi)


def execute(problem: ProblemFile, **overrides) -> Report:
    """Run a parsed problem; the sampling settings given (`seed`, `points`,
    `tol`) and not None override the file's, as the CLI flags do."""
    given = {k: v for k, v in overrides.items() if v is not None}
    try:  # `Sampler` refuses an invalid setting
        sampler = replace(problem.sampler, **given) if given else problem.sampler
        session = _Session(problem, sampler)
    except KernelError as e:
        return Report(input_error=str(e))
    return session.run()


def fixture_problem(fixture: Fixture) -> ProblemFile:
    """Registry fixture as a problem file (through the DSL for round-tripping)."""
    pf = ProblemFile(fixture.chart, fixture.vol, "pi", pi=fixture.pi, E=fixture.E,
                     commands=tuple((c, None) for c in fixture.commands))
    return parse_problem(pf.canonical_text())


def _setting(name: str):
    """argparse type for the flag overriding a problem file's setting."""
    def convert(text: str):
        try:
            return parse_setting(name, text)
        except DslError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return convert


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="gvkernel",
        description="Verify Jacobi structures and compute Godbillon-Vey "
                    "representatives on a chart.")
    ap.add_argument("file", nargs="?", help="problem file (DSL)")
    ap.add_argument("--fixture", choices=FIXTURE_NAMES,
                    help="run a built-in fixture instead of a file")
    for name in SETTINGS:  # validated as the problem file's lines are
        ap.add_argument(f"--{name}", type=_setting(name), default=None)
    ap.add_argument("--format", choices=("text", "structured"), default="text")
    args = ap.parse_args(argv)

    if (args.file is None) == (args.fixture is None):
        ap.print_usage(sys.stderr)
        print("gvkernel: need exactly one of <file> or --fixture", file=sys.stderr)
        return 2
    try:
        if args.fixture:
            problem = fixture_problem(get_fixture(args.fixture))
        else:
            with open(args.file, encoding="utf-8") as fh:
                problem = parse_problem(fh.read())
    except (KernelError, OSError) as e:
        print(f"gvkernel: {e}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:  # not UTF-8 text
        print(f"gvkernel: {args.file}: {e}", file=sys.stderr)
        return 2
    report = execute(problem, **{name: getattr(args, name) for name in SETTINGS})
    sys.stdout.write(emit(report, args.format))
    if report.input_error is not None:
        print(f"gvkernel: {report.input_error}", file=sys.stderr)
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
