"""Command-line interface tying the library together.

Subcommands
-----------
branch      characteristic exponents, image series, poles, recovered exponents
count       jet-image counts for a branch, or residue-lifting counts for
            polynomial systems
presburger  quantifier elimination, weighted sums, point evaluation
igusa       monomial integral series, optionally checked against exact
            volumes at a prime
verify      run a verification plan from JSON and emit a verdict

Exit codes: 0 success / verification pass, 1 usage or input error,
2 verification failure, 3 verification uncertified.

Every setting is a command-line flag whose default and type click declares
and checks; no file or environment variable is consulted.  Outputs are
deterministic byte-for-byte; wall-clock timings appear only with
``--timings``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import click

from .branch import BranchSpec, characteristic_sequence, p_ar, p_geom, puiseux_from_poles
from .counting import DEFAULT_BUDGET, CountReport, CountRow, count_branch_report, igusa_monomial
from .liftable import DEPTH_POLICY, IntPoly, count_liftable
from .presburger import (
    eliminate_quantifiers,
    free_vars,
    membership,
    parse_linear,
    parse_presburger,
    simplify,
    to_text,
)
from .ranges import to_iterated_ranges, weighted_sum
from .ratseries import rs_latex, rs_normalize, rs_poles_in_L, rs_text, rs_to_json
from .verifier import VerificationPlan, run_plan, verify_igusa

_EXIT_FOR_SUMMARY = {"pass": 0, "fail": 2, "uncertified": 3}


# Every echo names its stream.  Without ``file``, click caches a wrapper of
# sys.stdout/sys.stderr per stream in a WeakKeyDictionary; for a redirected
# StringIO the wrapper is the stream itself, so the entry never dies and each
# in-process response buffer would be kept for the life of the process.
# click's own --help callback echoes without ``file``, so it is replaced.
def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color, file=sys.stdout)
        ctx.exit()


class _NamedHelp:
    """Mixin: the --help option echoes to the named stdout."""

    def get_help_option(self, ctx):
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Command(_NamedHelp, click.Command):
    pass


class _Group(_NamedHelp, click.Group):
    """Group whose standalone mode maps usage errors to exit code 1."""

    command_class = _Command
    group_class = type  # subgroups are _Group too

    def main(self, *args, standalone_mode=True, **kwargs):
        if not standalone_mode:
            return super().main(*args, standalone_mode=False, **kwargs)
        try:
            rv = super().main(*args, standalone_mode=False, **kwargs)
        except click.UsageError as exc:
            exc.show(file=sys.stderr)
            sys.exit(1)
        except click.ClickException as exc:
            exc.show(file=sys.stderr)
            sys.exit(exc.exit_code)
        except click.exceptions.Abort:
            click.echo("Aborted!", file=sys.stderr)
            sys.exit(130)
        sys.exit(rv if isinstance(rv, int) else 0)


def _fail(message: str) -> None:
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def _reject_unread(mode: str, set_flags: dict[str, bool]) -> None:
    """A flag set away from its default in a mode that never reads it is an error."""
    unread = [flag for flag, is_set in set_flags.items() if is_set]
    if unread:
        _fail(f"{mode} do not read {', '.join(unread)}")


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
            _fail(str(exc))

    return wrapper


def _read_json(path: str):
    return json.loads(Path(path).read_text())


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n")
    else:
        click.echo(text, file=sys.stdout)


def _emit_series(series, fmt: str, out: str | None) -> None:
    if fmt == "json":
        _emit(_dump_json(rs_to_json(series)), out)
    elif fmt == "latex":
        _emit(rs_latex(series), out)
    else:
        _emit(rs_text(series), out)


def _zero_timings(report: CountReport) -> CountReport:
    return replace(report, rows=[replace(r, seconds=0.0) for r in report.rows])


def _report_text(report: CountReport) -> str:
    head = [f"name: {report.name}  p={report.p}  d={report.d}", *(f"assumption: {a}" for a in report.assumptions)]
    return "\n".join([*head, report.to_csv().rstrip("\n")])


@click.group(cls=_Group)
def main():
    """Exact image series, p-adic integrals, and counting verifications."""


# ---------------------------------------------------------------------------
# branch
# ---------------------------------------------------------------------------


@main.command()
@click.option("--input", "path", required=True, metavar="FILE", help="Branch JSON file.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "latex"]), default="text")
@click.option("--normalize", is_flag=True, help="Canonicalize the series before rendering.")
@click.option("--out", default=None, metavar="FILE")
@_guarded
def branch(path, fmt, normalize, out):
    """Characteristic data and image series of a plane branch."""
    b = BranchSpec.from_json(_read_json(path))
    c = characteristic_sequence(b)
    geom_series, ar_series = p_geom(c), p_ar(c)
    if normalize:
        geom_series, ar_series = rs_normalize(geom_series), rs_normalize(ar_series)
    window = sorted(a for a in rs_poles_in_L(ar_series) if -1 < a < 0)
    recovered = puiseux_from_poles(window, c.m) if window else []
    if fmt == "json":
        payload = {
            "m": c.m,
            "g": c.g,
            "beta": list(c.beta),
            "e": list(c.e),
            "N": list(c.N),
            "p_geom": rs_to_json(geom_series),
            "p_ar": rs_to_json(ar_series),
            "poles": [str(a) for a in window],
            "recovered_exponents": recovered,
        }
        _emit(_dump_json(payload), out)
        return
    render = rs_latex if fmt == "latex" else rs_text
    lines = [
        str(c),
        f"g: {c.g}",
        f"P_geom: {render(geom_series)}",
        f"P_ar: {render(ar_series)}",
        f"poles in (-1,0): {', '.join(str(a) for a in window) or 'none'}",
        f"recovered exponents: {recovered}",
    ]
    _emit("\n".join(lines), out)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


@main.command("count")
@click.option("--branch", "branch_path", default=None, metavar="FILE", help="Branch JSON file.")
@click.option("--poly", "polys", multiple=True, metavar="EXPR", help="Polynomial equation(s); repeatable.")
@click.option("--locus", multiple=True, metavar="EXPR", help="Reduction locus generator(s); repeatable (poly mode).")
@click.option("--origin", is_flag=True, help="Shorthand: reduction locus = all variables (poly mode).")
@click.option("-p", "--prime", type=int, required=True)
@click.option("--ext-degree", "ext_degree", type=int, default=1, help="Field extension degree d (branch mode).")
@click.option("--n-max", "n_max", type=click.IntRange(min=0), default=8)
@click.option("--window/--no-window", "window", default=True, help="Windowed enumeration (branch mode).")
@click.option("--budget", type=click.IntRange(min=1), default=DEFAULT_BUDGET)
@click.option("--depth", type=int, default=None, help=f"Lifting depth (poly mode); default {DEPTH_POLICY}.")
@click.option(
    "--timings",
    is_flag=True,
    help="Include wall-clock seconds per row (non-deterministic output). A branch count enumerates once for"
    " all rows and a poly count walks its cell tree once: the top row carries the whole count and the lower"
    " rows read 0.",
)
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "text"]), default="csv")
@click.option("--out", default=None, metavar="FILE")
@_guarded
def count_cmd(branch_path, polys, locus, origin, prime, ext_degree, n_max, window, budget, depth, timings, fmt, out):
    """Count jet images of a branch or liftable residues of a system."""
    if bool(branch_path) == bool(polys):
        _fail("exactly one of --branch or --poly is required")
    if branch_path:
        _reject_unread("--branch counts", {"--depth": depth is not None, "--locus": bool(locus), "--origin": origin})
    else:
        _reject_unread("--poly counts", {"--ext-degree": ext_degree != 1, "--no-window": not window})
    if branch_path:
        b = BranchSpec.from_json(_read_json(branch_path))
        report = count_branch_report(b, prime, ext_degree, n_max, window=window, budget=budget)
    else:
        parsed = [IntPoly.parse(s) for s in polys]
        nvars = max(q.nvars for q in parsed)
        if origin and locus:
            _fail("--origin and --locus are mutually exclusive")
        w = list(locus) if locus else ([f"x{i + 1}" for i in range(nvars)] if origin else [])
        report = CountReport(name="liftable-residues", p=prime, d=1)
        t0 = time.perf_counter()
        top = count_liftable(parsed, w, prime, n_max, depth, budget=budget)
        seconds = time.perf_counter() - t0
        rows = [*top.below, top]
        report.rows = [CountRow(n, r.count, r.method, seconds if n == n_max else 0.0) for n, r in enumerate(rows)]
        report.assumptions.append(
            f"depth policy: {DEPTH_POLICY} unless --depth is given; uncertified rows mean the tree stabilized without certificates"
        )
    if not timings:
        report = _zero_timings(report)
    if fmt == "csv":
        _emit(report.to_csv().rstrip("\n"), out)
    elif fmt == "json":
        _emit(_dump_json(report.to_json()), out)
    else:
        _emit(_report_text(report), out)


# ---------------------------------------------------------------------------
# presburger
# ---------------------------------------------------------------------------


@main.group()
def presburger():
    """Work with Presburger formulas."""


@presburger.command()
@click.argument("formula")
@click.option("--var", "declared", multiple=True, help="Declared variable (repeatable).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--out", default=None, metavar="FILE")
@_guarded
def qe(formula, declared, fmt, out):
    """Eliminate quantifiers and print an equivalent quantifier-free formula."""
    f = parse_presburger(formula, list(declared) or None)
    result = to_text(simplify(eliminate_quantifiers(f)))
    if fmt == "json":
        _emit(_dump_json({"input": formula, "result": result}), out)
    else:
        _emit(result, out)


@presburger.command("sum")
@click.option("--set", "set_text", required=True, metavar="FORMULA", help="Defining formula of the index set.")
@click.option("--tweight", required=True, metavar="AFFINE", help="Exponent of T, e.g. 'n' or '2*n - 1'.")
@click.option("--lweight", default="0", metavar="AFFINE", help="Exponent of L^-1 (default 0).")
@click.option("--order", default=None, metavar="VARS", help="Comma-separated elimination order.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "latex"]), default="text")
@click.option("--out", default=None, metavar="FILE")
@_guarded
def sum_cmd(set_text, tweight, lweight, order, fmt, out):
    """Closed form of sum of L^-lweight T^tweight over a Presburger set."""
    f = parse_presburger(set_text)
    names = [v.strip() for v in order.split(",")] if order else sorted(free_vars(f))
    system = to_iterated_ranges(f, names)
    _emit_series(weighted_sum(system, parse_linear(lweight), parse_linear(tweight)), fmt, out)


@presburger.command()
@click.argument("formula")
@click.option("--point", required=True, metavar="ASSIGN", help="Comma-separated assignments, e.g. 'x=4,y=-2'.")
@click.option("--var", "declared", multiple=True)
@_guarded
def check(formula, point, declared):
    """Evaluate a formula at an integer point (quantifiers eliminated first)."""
    f = parse_presburger(formula, list(declared) or None)
    assigns = {}
    for part in point.split(","):
        name, _, val = part.partition("=")
        if not _:
            _fail(f"bad assignment {part!r}; expected name=value")
        assigns[name.strip()] = int(val)
    qf = simplify(eliminate_quantifiers(f))
    missing = free_vars(qf) - set(assigns)
    if missing:
        _fail(f"point does not assign {sorted(missing)}")
    click.echo("true" if membership(qf, assigns) else "false", file=sys.stdout)


# ---------------------------------------------------------------------------
# igusa
# ---------------------------------------------------------------------------


@main.command()
@click.option("-k", "--exponent", "ks", multiple=True, type=int, required=True, help="Monomial exponent; repeatable.")
@click.option("-p", "--prime", type=int, default=None, help="Check coefficients against exact volumes at p.")
@click.option("--n-max", "n_max", type=click.IntRange(min=0), default=6, help="Last n checked (with -p).")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "latex"]), default="text", help="latex: series only.")
@click.option("--out", default=None, metavar="FILE")
@_guarded
def igusa(ks, prime, n_max, fmt, out):
    """Monomial integral series; with -p, verify against residue counting."""
    if prime is None:
        _reject_unread("igusa series without -p", {"--n-max": n_max != 6})
        _emit_series(igusa_monomial(ks), fmt, out)
        return
    _reject_unread("igusa -p verdicts", {"--format latex": fmt == "latex"})
    plan = VerificationPlan(target="igusa-monomial", exponents=tuple(ks), primes=(prime,), n_max=n_max)
    verdict = verify_igusa(plan)
    if fmt == "json":
        _emit(_dump_json(verdict.to_json()), out)
    else:
        _emit(verdict.to_text().rstrip("\n"), out)
    sys.exit(_EXIT_FOR_SUMMARY[verdict.summary])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@main.command()
@click.option("--plan", "plan_path", required=True, metavar="FILE", help="Verification plan JSON.")
@click.option("--out", default=None, metavar="FILE", help="Write the verdict JSON here.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_guarded
def verify(plan_path, out, fmt):
    """Run a verification plan; exit 0 pass, 2 fail, 3 uncertified."""
    plan = VerificationPlan.from_json(_read_json(plan_path))
    verdict = run_plan(plan)
    if out:
        Path(out).write_text(_dump_json(verdict.to_json()) + "\n")
    if fmt == "json":
        click.echo(_dump_json(verdict.to_json()), file=sys.stdout)
    else:
        click.echo(verdict.to_text().rstrip("\n"), file=sys.stdout)
    sys.exit(_EXIT_FOR_SUMMARY[verdict.summary])


if __name__ == "__main__":
    main()
