"""Known-answer checks on one operation's report.

``check(op, payload)`` returns None when the report gives the operation's
known answer, else a one-line reason.  The ``enclose`` check recomputes the
continued fraction with mpmath at four times the requested precision, so it
runs inside the operation's process after the timed region.
"""

from __future__ import annotations

import json


def _arg(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _enclose_reason(argv: list[str], result: dict) -> str | None:
    import mpmath

    from cfindep.catalog import build_config

    seq = build_config(_arg(argv, "--example")).sequences[int(_arg(argv, "--j", 1)) - 1]
    n, prec = int(_arg(argv, "--N", 10)), int(_arg(argv, "--precision", 128))
    mp = mpmath.mp
    mp.prec = 4 * prec
    theta = None
    if seq.field is not None:
        coeffs = list(reversed(seq.field.minpoly.coeffs))
        seed = float(seq.field.root_enclosure(64).midpoint())
        theta = mpmath.findroot(lambda x: mpmath.polyval(coeffs, x), mpmath.mpf(seed))

    def as_mpf(a):
        if hasattr(a, "coords"):
            return sum(mpmath.mpf(c.numerator) / c.denominator * theta ** i
                       for i, c in enumerate(a.coords))
        return mpmath.mpf(a.numerator) / a.denominator

    # n + 4 quotients put the truncation error far below 2^(-4 prec) for the
    # doubly-exponential catalog entries this check is used on
    tail = mpmath.mpf(0)
    for k in range(n + 4, 0, -1):
        tail = 1 / (as_mpf(seq.quotient(k)) + tail)
    value = result["value"]
    if abs(mpmath.mpf(value["value"]) - tail) > mpmath.mpf(value["plus_minus"]):
        return f"enclosure {value['value']} +/- {value['plus_minus']} misses {mpmath.nstr(tail, 30)}"
    return None


def check(op: dict, payload: str) -> str | None:
    expect = op["expect"]
    report = json.loads(payload)
    result = report["result"]
    kind = expect["kind"]
    if kind == "overall":
        got = result["overall"]
        return None if got == expect["overall"] else f"overall {got}, expected {expect['overall']}"
    if kind == "relation_none":
        got = result["status"]
        return None if got == "none_below_height" else f"status {got}, expected none_below_height"
    if kind == "planted":
        got = (result["status"], result["coefficients"])
        want = ("found", expect["coefficients"])
        return None if got == want else f"relation {got}, expected {want}"
    if kind == "suite":
        ok = result["trials"] == result["passed"] == expect["trials"] and report["status"] == "pass"
        return None if ok else f"{result['passed']}/{result['trials']} trials passed"
    if kind == "status":
        got = report["status"]
        return None if got == expect["status"] else f"status {got}, expected {expect['status']}"
    if kind == "convergents":
        bad = [row["n"] for row in result["convergents"]
               if row["determinant"] != ("+1" if row["n"] % 2 == 0 else "-1")]
        return f"determinant is not (-1)^n at n={bad}" if bad else None
    if kind == "enclose":
        return _enclose_reason(op["argv"], result)
    raise ValueError(f"unknown check kind {kind!r}")
