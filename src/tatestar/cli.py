"""Command-line interface.

Subcommands:
  expand   print a closed-form expansion of the p-th star power
  verify   run a named verification suite and report pass/fail
  pair     evaluate the split-reduction local pairing value
  hilbert  evaluate the degree-p tame symbol of two elements

Exit codes: 0 success, 1 a verification failed, 2 usage or validation error.
All output is deterministic for fixed flags. The parser, and the tame model of each
(p, q, g) that pair and hilbert use, are built once per process, on first use.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .closed_forms import MAX_SYMBOLIC_PRIME, gamma_form, intermediate_form, rho_form
from .local_pairing import TameFieldModel, hilbert, qk_split
from .modular import split_field
from .render import element_latex, expand_payload, symbol_payload
from .star_algebra import GammaAssignment, coboundary
from .suites import SUITE_NAMES, run_suites
from .torsion import basis, validate_odd_prime

# form name -> its expansion over the basis (P, Q) and gamma
_FORMS = {
    "gamma": gamma_form,
    "intermediate": intermediate_form,
    "rho": lambda P, Q, gamma: rho_form(P, Q, coboundary(gamma)),
}


# cached: the cmd_* handlers are bound at the first build, so patching one needs cache_clear()
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tatestar",
        description="Exact expansions of twisted star powers and tame local pairing values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser("expand", help="expand the p-th star power in closed form")
    expand.add_argument(
        "--p", type=int, required=True, help=f"odd prime, at most {MAX_SYMBOLIC_PRIME} here"
    )
    expand.add_argument(
        "--form",
        choices=tuple(_FORMS),
        default="gamma",
        help="which expansion to print (default gamma)",
    )
    expand.add_argument("--latex", action="store_true", help="print LaTeX instead of JSON")
    expand.set_defaults(func=cmd_expand)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--p", type=int, required=True)
    verify.add_argument(
        "--q",
        type=int,
        default=None,
        help="residue prime, q = 1 mod p, of every numeric sweep (default: smallest)",
    )
    verify.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    pair = sub.add_parser("pair", help="evaluate the split-reduction pairing value")
    _add_model_flags(pair)
    # stored as a and b, the names the hilbert command gives its two elements
    pair.add_argument("--alpha-p", dest="a", required=True, metavar="n:u",
                      help="the element alpha_P")
    pair.add_argument("--alpha-q", dest="b", required=True, metavar="n:u",
                      help="the element alpha_Q")
    pair.set_defaults(func=cmd_symbol)

    hil = sub.add_parser("hilbert", help="evaluate the degree-p tame symbol")
    _add_model_flags(hil)
    hil.add_argument("--a", required=True, metavar="n:u")
    hil.add_argument("--b", required=True, metavar="n:u")
    hil.set_defaults(func=cmd_symbol)
    return parser


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument(
        "--q", type=int, default=None, help="residue prime, q = 1 mod p (default: smallest)"
    )
    sub.add_argument("--gen", type=int, default=None, help="primitive root mod q (default: smallest)")


def cmd_expand(args) -> int:
    p = validate_odd_prime(args.p)
    if p > MAX_SYMBOLIC_PRIME:
        raise ValueError(
            f"the symbolic expansion at p={p} is too large to build (its origin coefficient "
            f"has 32,066 terms already at p=11); only p <= {MAX_SYMBOLIC_PRIME} is supported "
            "here (use `verify --suite closed` for the larger primes)"
        )
    result = _FORMS[args.form](*basis(p), GammaAssignment.symbolic(p))
    if args.latex:
        print(element_latex(result.element))
    else:
        print(json.dumps(expand_payload(p, result), indent=2))
    return 0


def cmd_verify(args) -> int:
    p = validate_odd_prime(args.p)
    if args.q is not None:
        split_field(p, args.q)  # a bad q exits 2 before any suite runs
    outcomes = run_suites(args.suite, p, q=args.q, seed=args.seed)
    failures = 0
    for suite_name, check in outcomes:
        status = "ok" if check.ok else "FAIL"
        print(f"{status:4s} {suite_name}:{check.name}  ({check.detail})")
        failures += 0 if check.ok else 1
    total = len(outcomes)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def cmd_symbol(args) -> int:
    """`pair` (qk_split) or `hilbert` of the two elements a and b in the model."""
    model = _model(args.p, args.q, args.gen)
    a, b = model.parse(args.a), model.parse(args.b)
    # named here, not stored at import, so a wrapped cli.qk_split or cli.hilbert runs
    value = qk_split(a, b) if args.command == "pair" else hilbert(a, b)
    print(json.dumps(symbol_payload(args.command, model, value), indent=2))
    return 0


@functools.cache
def _model(p: int, q: int | None, gen: int | None) -> TameFieldModel:
    """The frozen model of argparse's ints; a bad q or gen is not cached, so it raises again."""
    return TameFieldModel.create(p, q, gen)


def main(argv: list[str] | None = None) -> int:
    """Run one command; the parser and each (p, q, g) model are built once per process."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:  # AmbientMismatchError and BasisError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; suppress the noise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        try:
            sys.stdout.flush()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
