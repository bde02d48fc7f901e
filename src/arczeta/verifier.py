"""End-to-end consistency checks between closed forms and independent counters.

A :class:`VerificationPlan` names a target identity, a branch or monomial
input, and a list of primes.  Running a plan expands the relevant closed-form
series, substitutes ``L := p``, and compares each coefficient exactly (no
tolerance anywhere) against a count produced by a route that never touches
the closed form:

* ``branch-par``        coefficient of ``T^n`` in the specialized image series
                        vs. enumeration of ``F_p[t]/t^{n+1}`` jets,
* ``branch-pgeom``      geometric series vs. a bounded-degree extension
                        search (heuristic: never certified),
* ``igusa-monomial``    specialized monomial integral vs. exact Haar volumes
                        from residue counting,
* ``cusp-cross-method`` residue lifting counts, jet enumeration, and the
                        specialized series, all three required to agree.

All four targets share one comparison loop (``_compare``): for each admissible
prime it specializes the series once, expands it to ``T^{n_max}``, and pairs
coefficient ``n`` with row ``n`` of the target's counter at ``p``, which
returns for every ``n <= n_max`` the count, an optional second count, and
whether the count is certified.  So jet images are counted by one
``count_branch_report`` per prime, which enumerates each stratum once, at
``n_max``.  A target supplies only its series, its counter and any extra
assumptions; the table ``_TARGETS`` names its runner and the plan fields it
reads, and a plan that sets any other field is rejected.

Verdicts list every ``(p, n)`` comparison, carry a machine-checkable summary
(``pass`` / ``fail`` / ``uncertified``), and serialize deterministically:
running the same plan twice yields byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Mapping, Sequence

from .branch import BranchSpec, characteristic_sequence, p_ar, p_geom
from .counting import (
    DEFAULT_BUDGET,
    CountRow,
    count_branch_image,  # unused here; perfbench/spans.py patches verifier.count_branch_image
    count_branch_image_geometric,
    count_branch_report,
    igusa_monomial,
    measure_ord_locus,
)
from .fq import is_prime
from .liftable import count_liftable
from .ratseries import rs_equal, rs_from_json, rs_specialize
from .tate import json_value

__all__ = [
    "NoAdmissiblePrime",
    "VerificationPlan",
    "CompRow",
    "Verdict",
    "admissible_primes",
    "verify_branch_par",
    "verify_branch_pgeom",
    "verify_igusa",
    "verify_cross_method",
    "run_plan",
]

GEOM_ASSUMPTION = "geometric counts search extensions of degree <= m only (heuristic, never certified)"


class NoAdmissiblePrime(ValueError):
    """Every supplied prime was excluded by the admissibility filter."""


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationPlan:
    """Input to one verification run; see module docstring for targets."""

    target: str
    branch: BranchSpec | None = None
    exponents: tuple[int, ...] | None = None
    poly: tuple[str, ...] = ()
    locus: tuple[str, ...] = ()
    primes: tuple[int, ...] = ()
    n_max: int = 8
    budget: int = DEFAULT_BUDGET
    depth: int | None = None
    window: bool = True
    force_primes: bool = False
    expect_series: Mapping | None = None

    def __post_init__(self) -> None:
        if self.target not in _TARGETS:
            raise ValueError(f"unknown target {self.target!r}; expected one of {tuple(_TARGETS)}")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.depth is not None and self.depth < 0:
            raise ValueError("depth must be >= 0")
        if not self.primes:
            raise ValueError("prime list must be nonempty")
        if self.target == "igusa-monomial":
            if not self.exponents:
                raise ValueError("igusa-monomial plans need exponents")
        elif self.branch is None:
            raise ValueError(f"{self.target} plans need a branch")
        reads = ("target", *_TARGETS[self.target][1])
        unread = [f.name for f in fields(self) if f.name not in reads and getattr(self, f.name) != f.default]
        if unread:
            raise ValueError(f"{self.target} plans do not read {unread}")

    @classmethod
    def from_json(cls, obj: Mapping | str) -> VerificationPlan:
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, Mapping):
            raise ValueError("plan JSON must be an object")
        extra = set(obj) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown plan fields: {sorted(extra)}")
        try:
            return cls(
                target=str(obj["target"]),
                branch=BranchSpec.from_json(obj["branch"]) if obj.get("branch") is not None else None,
                exponents=(
                    tuple(json_value(k, int, "exponents") for k in obj["exponents"]) if obj.get("exponents") else None
                ),
                poly=tuple(json_value(s, str, "poly entry") for s in json_value(obj.get("poly", []), list, "poly")),
                locus=tuple(json_value(s, str, "locus entry") for s in json_value(obj.get("locus", []), list, "locus")),
                primes=tuple(json_value(p, int, "primes") for p in obj.get("primes", ())),
                n_max=json_value(obj.get("n_max", 8), int, "n_max"),
                budget=json_value(obj.get("budget", DEFAULT_BUDGET), int, "budget"),
                depth=json_value(obj["depth"], int, "depth") if obj.get("depth") is not None else None,
                window=json_value(obj.get("window", True), bool, "window"),
                force_primes=json_value(obj.get("force_primes", False), bool, "force_primes"),
                expect_series=obj.get("expect_series"),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed plan JSON: {exc}") from exc

    def to_json(self) -> dict:
        out: dict = {
            "target": self.target,
            "primes": list(self.primes),
            "n_max": self.n_max,
            "budget": self.budget,
            "window": self.window,
            "force_primes": self.force_primes,
        }
        if self.branch is not None:
            out["branch"] = self.branch.to_json()
        if self.exponents is not None:
            out["exponents"] = list(self.exponents)
        if self.poly:
            out["poly"] = list(self.poly)
        if self.locus:
            out["locus"] = list(self.locus)
        if self.depth is not None:
            out["depth"] = self.depth
        if self.expect_series is not None:
            out["expect_series"] = dict(self.expect_series)
        return out


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompRow:
    """One exact comparison at (p, n); counted_alt holds a second counter."""

    p: int
    n: int
    symbolic: Fraction
    counted: Fraction
    counted_alt: Fraction | None = None
    certified: bool = True

    @property
    def equal(self) -> bool:
        if self.counted_alt is not None and self.counted_alt != self.symbolic:
            return False
        return self.symbolic == self.counted

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "symbolic": str(self.symbolic),
            "counted": str(self.counted),
            "counted_alt": None if self.counted_alt is None else str(self.counted_alt),
            "certified": self.certified,
            "equal": self.equal,
        }


@dataclass(frozen=True)
class Verdict:
    target: str
    rows: tuple[CompRow, ...]
    summary: str
    detail: str = ""
    assumptions: tuple[str, ...] = ()

    @classmethod
    def from_rows(
        cls,
        target: str,
        rows: Sequence[CompRow],
        assumptions: Sequence[str] = (),
        forced_fail: str | None = None,
    ) -> Verdict:
        rows = tuple(rows)
        if forced_fail is not None:
            return cls(target, rows, "fail", forced_fail, tuple(assumptions))
        for r in rows:
            # an uncertified count that differs is inconclusive, not a failure
            if not r.equal and r.certified:
                alt = "" if r.counted_alt is None else f" (second counter: {r.counted_alt})"
                return cls(
                    target,
                    rows,
                    "fail",
                    f"first mismatch at p={r.p}, n={r.n}: symbolic {r.symbolic} != counted {r.counted}{alt}",
                    tuple(assumptions),
                )
        for r in rows:
            if not r.certified:
                note = "" if r.equal else f" (values differ: {r.symbolic} vs {r.counted})"
                return cls(
                    target,
                    rows,
                    "uncertified",
                    f"count at p={r.p}, n={r.n} carries no certificate{note}",
                    tuple(assumptions),
                )
        return cls(target, rows, "pass", "", tuple(assumptions))

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "summary": self.summary,
            "detail": self.detail,
            "assumptions": list(self.assumptions),
            "rows": [r.to_json() for r in self.rows],
        }

    def to_text(self) -> str:
        lines = [f"target: {self.target}", f"summary: {self.summary}"]
        if self.detail:
            lines.append(f"detail: {self.detail}")
        for a in self.assumptions:
            lines.append(f"assumption: {a}")
        for r in self.rows:
            alt = "" if r.counted_alt is None else f"  alt={r.counted_alt}"
            mark = "ok" if r.equal else "MISMATCH"
            cert = "certified" if r.certified else "uncertified"
            lines.append(f"p={r.p} n={r.n}  symbolic={r.symbolic}  counted={r.counted}{alt}  [{mark}, {cert}]")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# prime admissibility
# ---------------------------------------------------------------------------


def admissible_primes(plan: VerificationPlan) -> tuple[list[int], list[str]]:
    """Filter plan.primes for the branch hypotheses: (kept primes, exclusion notes).

    Excluded (unless ``plan.force_primes``): primes dividing a coefficient
    denominator, primes <= m, and primes != 1 mod m.  Each excluded prime gets
    one note with its reason, such as ``p=7 excluded: 7 != 1 mod 4``, which
    the verdicts list among their assumptions.  Non-primes are an input
    error, not a filter case.
    """
    for p in plan.primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if plan.target == "igusa-monomial" or plan.force_primes:
        return list(plan.primes), []
    b = plan.branch
    denoms = {a.denominator for a in b.coeffs.values()}
    kept, reasons = [], []
    for p in plan.primes:
        if any(d % p == 0 for d in denoms):
            reasons.append((p, f"{p} divides a coefficient denominator"))
        elif p <= b.m:
            reasons.append((p, f"{p} <= multiplicity {b.m}"))
        elif (p - 1) % b.m != 0:
            reasons.append((p, f"{p} != 1 mod {b.m}"))
        else:
            kept.append(p)
    if not kept:
        raise NoAdmissiblePrime("; ".join(r for _, r in reasons) if reasons else "prime list empty")
    return kept, [f"p={p} excluded: {r}" for p, r in reasons]


# ---------------------------------------------------------------------------
# verification operations
# ---------------------------------------------------------------------------


def _check_target(plan: VerificationPlan, target: str) -> None:
    if plan.target != target:
        raise ValueError(f"plan target {plan.target!r} is not {target}")


def _compare(
    plan: VerificationPlan,
    series,
    count,
    assumptions: Sequence[str] = (),
    forced_fail: str | None = None,
) -> Verdict:
    """The one comparison loop: coefficient n of ``series`` at L := p against ``count(p)[n]``.

    ``count(p)`` returns ``(counted, counted_alt, certified)`` for each
    n = 0..n_max.  The excluded primes lead the verdict's assumptions,
    followed by ``assumptions``.
    """
    primes, excluded = admissible_primes(plan)
    rows = []
    for p in primes:
        coeffs = rs_specialize(series, p).taylor(plan.n_max)
        rows += [CompRow(p, n, coeffs[n], *counted) for n, counted in enumerate(count(p))]
    return Verdict.from_rows(plan.target, rows, assumptions=[*excluded, *assumptions], forced_fail=forced_fail)


def _image_rows(plan: VerificationPlan, p: int) -> list[CountRow]:
    """The jet-image counts over F_p at n = 0..n_max, one enumeration per stratum."""
    return count_branch_report(plan.branch, p, 1, plan.n_max, window=plan.window, budget=plan.budget).rows


def verify_branch_par(plan: VerificationPlan) -> Verdict:
    """Image series at L := p vs. jet enumeration over F_p[t]/t^{n+1}."""
    _check_target(plan, "branch-par")
    b = plan.branch
    series = p_ar(characteristic_sequence(b))
    forced = None
    if plan.expect_series is not None and not rs_equal(series, rs_from_json(plan.expect_series)):
        forced = "computed symbolic series differs from the plan's expected series"

    def count(p: int):
        return [(Fraction(r.count), None, True) for r in _image_rows(plan, p)]

    return _compare(plan, series, count, forced_fail=forced)


def verify_branch_pgeom(plan: VerificationPlan) -> Verdict:
    """Geometric series vs. bounded extension search; heuristic, never passes."""
    _check_target(plan, "branch-pgeom")
    b = plan.branch
    series = p_geom(characteristic_sequence(b))

    def count(p: int):
        # the F_p filter reads every digit up to the level, so each level is enumerated apart
        return [
            (Fraction(count_branch_image_geometric(b, p, n, budget=plan.budget)), None, False)
            for n in range(plan.n_max + 1)
        ]

    return _compare(plan, series, count, [GEOM_ASSUMPTION])


def verify_igusa(plan: VerificationPlan) -> Verdict:
    """Specialized monomial integral vs. exact Haar volumes, coefficientwise."""
    _check_target(plan, "igusa-monomial")
    ks = plan.exponents
    return _compare(
        plan, igusa_monomial(ks), lambda p: [(measure_ord_locus(ks, p, n), None, True) for n in range(plan.n_max + 1)]
    )


def verify_cross_method(plan: VerificationPlan) -> Verdict:
    """Residue lifting, jet enumeration, and the specialized series agree.

    The lifting depth defaults to ``liftable.default_depth(n)``, enough for
    the cusp's tail zones to certify; an explicit shallow depth yields an
    uncertified verdict.  Without ``poly`` the lifted curve is the cusp
    x^2 - y^3, so a plan on any other branch must name its equation.
    """
    _check_target(plan, "cusp-cross-method")
    b = plan.branch
    c = characteristic_sequence(b)
    if not plan.poly and c.beta != (2, 3):
        raise ValueError(
            "cusp-cross-method plan needs poly: the default x^2 - y^3 is the cusp (2;3),"
            f" not a branch with characteristic exponents {list(c.beta)}"
        )
    f = plan.poly or ("x^2 - y^3",)
    W = plan.locus or ("x", "y")

    def count(p: int):
        images = _image_rows(plan, p)
        lifted = count_liftable(f, W, p, plan.n_max, plan.depth, budget=plan.budget)  # one walk, every level
        return [
            (Fraction(row.count), Fraction(image.count), row.certified)
            for row, image in zip([*lifted.below, lifted], images)
        ]

    return _compare(plan, p_ar(c), count)


# target -> (runner, the plan fields besides ``target`` that it reads).  A plan
# may set only the fields its target reads.
_TARGETS = {
    "branch-par": (
        verify_branch_par,
        ("branch", "primes", "n_max", "budget", "window", "force_primes", "expect_series"),
    ),
    "branch-pgeom": (verify_branch_pgeom, ("branch", "primes", "n_max", "budget", "force_primes")),
    "cusp-cross-method": (
        verify_cross_method,
        ("branch", "poly", "locus", "primes", "n_max", "budget", "depth", "window", "force_primes"),
    ),
    "igusa-monomial": (verify_igusa, ("exponents", "primes", "n_max")),
}


def run_plan(plan: VerificationPlan) -> Verdict:
    return _TARGETS[plan.target][0](plan)
