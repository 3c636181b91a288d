"""Command-line frontend: field construction, set operations, energies, lemma
verification, proof tracing, surveys and covering numbers.

Exit codes: 0 on success, 1 on a domain error (the error class name goes to
stderr), 2 on usage errors.  Machine output (json/csv) is deterministic for a
fixed seed; timings never appear in it.

--format offers only what a command writes (the first is the default):
field, setop, energy and cover text or json; verify json lines or a csv
summary; trace json lines.  survey writes CSV and a JSON summary to --out.

The other commands write their whole output once it is computed: a trace
batch keeps each trace's JSON line, not the trace.  survey builds its fields
and opens its CSV before it draws any set, then writes each row as its
record is made and the summary last, so a survey that stops part way leaves
the rows already written and no summary.  An --out that cannot be opened is
an IoFailure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

import numpy as np

from .errors import FqLabError, IoFailure, SizeInfeasible, TraceDegenerate
from .decompositions import covering_number, run_proof_trace
from .finite_field import ECHO_CHARS, _clip, parse_descriptor
from .lemma_oracles import (
    EXACT_PASS, FAIL, LEMMA_IDS, LEMMAS, MEASURED, WITNESS_FOUND, batch_verify, random_set,
    run_lemma)
from .set_algebra import SET_OPS, FqSet, additive_energy, multiplicative_energy, set_op
from .survey import ALPHA_POLICIES, KINDS, SAMPLERS, SurveyConfig, run_survey

TRACE_FIELDS = ("7^1", "2^3", "3^2", "11^1", "13^1", "2^4", "5^2")
TRACE_MIN_SIZE = 4  # a trace batch draws 4..10 nonzero elements
# degenerate draws in a row after which a trace batch gives up; seeded batches
# over TRACE_FIELDS and 2^6, 3^4 at alpha 1-3 see at most 17
TRACE_DEGENERATE_LIMIT = 100


@functools.cache  # built once per process: no default or choice reads state a run changes
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqlab",
        description="exact set algebra over GF(p^m) and shifted-product growth surveys")
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="construct a field and dump its data")
    p_field.add_argument("descriptor", help='field descriptor, e.g. "7" or "3^2"')
    _common(p_field)

    p_setop = sub.add_parser("setop", help="pairwise sum/diff/prod/ratio set")
    p_setop.add_argument("kind", choices=SET_OPS)
    p_setop.add_argument("--field", required=True)
    p_setop.add_argument("--a", required=True, help='set literal, e.g. "1,2,4"')
    p_setop.add_argument("--b", required=True)
    _common(p_setop)

    p_energy = sub.add_parser("energy", help="additive or multiplicative energy")
    p_energy.add_argument("kind", choices=("add", "mul"))
    p_energy.add_argument("--field", required=True)
    p_energy.add_argument("--set", dest="set_", help="set literal (additive)")
    p_energy.add_argument("--x", help="first set literal (multiplicative)")
    p_energy.add_argument("--y", help="second set literal (multiplicative)")
    _common(p_energy)

    p_verify = sub.add_parser("verify", help="run lemma checks")
    p_verify.add_argument("lemma", help=f"one of {', '.join(LEMMA_IDS)} or 'all'")
    p_verify.add_argument("--field", help="field for a single explicit instance")
    p_verify.add_argument("--set", dest="set_", help="set literal for one-set lemmas")
    p_verify.add_argument("--sets", help="semicolon-separated literals for multi-set lemmas")
    p_verify.add_argument("--r", type=int, help="pivot element (rbcard)")
    p_verify.add_argument("--alpha", type=int, default=1)
    p_verify.add_argument("--eps", default="1/4", help="proportion bound (plunnecke_refined)")
    p_verify.add_argument("--trials", type=positive_int, default=20,
                          help="batch instances per lemma")
    p_verify.add_argument("--seed", type=nonnegative_int, default=0)
    _common(p_verify, ("json", "csv"))

    p_trace = sub.add_parser("trace", help="run the growth proof trace")
    p_trace.add_argument("--field", help="field descriptor")
    p_trace.add_argument("--set", dest="set_", help="explicit input set literal")
    p_trace.add_argument("--alpha", type=int, default=1)
    p_trace.add_argument("--trials", type=positive_int, default=5, help="batch size when no --set")
    p_trace.add_argument("--seed", type=nonnegative_int, default=0)
    p_trace.add_argument("--kappa", type=positive_int, default=1)
    _common(p_trace, ("json",))

    p_survey = sub.add_parser("survey", help="run an expander survey to CSV/JSON")
    p_survey.add_argument("--fields", required=True, help="comma-separated descriptors")
    p_survey.add_argument("--sizes", required=True, help="comma-separated sizes")
    p_survey.add_argument("--samplers", default="uniform",
                          help="comma-separated: " + ",".join(SAMPLERS))
    p_survey.add_argument("--trials", type=positive_int, default=1)
    p_survey.add_argument("--seed", type=nonnegative_int, default=0)
    p_survey.add_argument("--alpha-policy", default="fixed1", choices=ALPHA_POLICIES)
    p_survey.add_argument("--kind", default="expander", choices=tuple(KINDS))
    p_survey.add_argument("--out", required=True, help="CSV output path")

    p_cover = sub.add_parser("cover", help="covering number by translates")
    p_cover.add_argument("--field", required=True)
    p_cover.add_argument("--target", required=True)
    p_cover.add_argument("--tile", required=True)
    p_cover.add_argument("--sign", default="+", choices=("+", "-"))
    _common(p_cover)

    for p in sub.choices.values():  # usage errors found after parsing exit 2 as well
        p.set_defaults(usage_error=p.error)
    return parser


def positive_int(text: str) -> int:
    """argparse type for an integer that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """argparse type for an integer that must be at least 0 (a seed)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _common(p: argparse.ArgumentParser, formats=("text", "json")) -> None:
    """--format with the formats the command writes (the first is the default), and --out."""
    p.add_argument("--format", default=formats[0], choices=formats)
    p.add_argument("--out", help="write output to this path instead of stdout")


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
    else:
        print(text)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cmd_field(args) -> int:
    spec = parse_descriptor(args.descriptor)
    if args.format == "json":
        _emit(args, _dumps(spec.to_json()))
    else:
        lines = [f"field      {spec.descriptor} (q = {spec.q})",
                 f"modulus    {list(spec.modulus)} (low degree first)",
                 f"generator  {spec.generator}"]
        _emit(args, "\n".join(lines))
    return 0


def _cmd_setop(args) -> int:
    spec = parse_descriptor(args.field)
    result = set_op(FqSet.from_literal(spec, args.a),
                    FqSet.from_literal(spec, args.b), args.kind)
    if args.format == "json":
        _emit(args, _dumps(result.to_json()))
    else:
        _emit(args, result.to_literal())
    return 0


def _cmd_energy(args) -> int:
    spec = parse_descriptor(args.field)
    if args.kind == "add":
        if not args.set_:
            args.usage_error("energy add requires --set")
        value = additive_energy(FqSet.from_literal(spec, args.set_))
    else:
        if not (args.x and args.y):
            args.usage_error("energy mul requires --x and --y")
        value = multiplicative_energy(FqSet.from_literal(spec, args.x),
                                      FqSet.from_literal(spec, args.y))
    _emit(args, _dumps({"energy": value}) if args.format == "json" else str(value))
    return 0


def _single_verify(args):
    lemma = args.lemma
    params = LEMMAS[lemma][1] if lemma in LEMMAS else ()
    if not params:
        args.usage_error(f"single-instance mode not supported for {lemma!r}")
    lits = [args.set_] if args.set_ else args.sets.split(";") if args.sets else []
    rest = params[-1] == "Bs"  # takes the remaining sets, at least one
    if len(lits) < len(params) or (not rest and len(lits) > len(params)):
        wanted = f"at least {len(params)}" if rest else len(params)
        args.usage_error(f"{lemma} takes {wanted} set(s) (--set X or --sets X;Y;...), "
                         f"got {len(lits)}")
    spec = parse_descriptor(args.field)
    sets = [FqSet.from_literal(spec, lit) for lit in lits]
    kwargs = dict(zip(params, sets))
    if rest:
        kwargs["Bs"] = sets[len(params) - 1:]
    return run_lemma(lemma, **kwargs, **_lemma_options(args, lemma))


def _lemma_options(args, lemma) -> dict:
    """Checker keyword arguments taken from options: --r, --alpha, --eps."""
    if lemma == "rbcard":
        if args.r is None:
            args.usage_error("rbcard needs --r and --sets X;X1;X2")
        return {"r": args.r}
    if lemma == "basic_shift_bound":
        return {"alpha": args.alpha}
    if lemma == "plunnecke_refined":
        # the form is checked before Fraction reads the text: an exponent
        # such as 1e999999999 would have it build the integer 10**999999999
        plain = re.fullmatch(r"[+-]?([0-9]+/[0-9]+|[0-9]+\.?[0-9]*|\.[0-9]+)", args.eps)
        if plain and len(args.eps) <= ECHO_CHARS:
            try:
                return {"eps": Fraction(args.eps)}
            except ZeroDivisionError:
                pass
        args.usage_error(f"--eps must be a fraction such as 1/4 or a decimal such as 0.25, "
                         f"got {_clip(repr(args.eps))}")
    return {}


def _cmd_verify(args) -> int:
    if args.set_ is not None or args.sets is not None:
        if not args.field:
            args.usage_error("single-instance verify requires --field")
        reports = [_single_verify(args)]
    else:
        if args.lemma != "all" and args.lemma not in LEMMAS:
            args.usage_error(f"unknown lemma {args.lemma!r}")
        lemmas = LEMMA_IDS if args.lemma == "all" else (args.lemma,)
        reports = [r for lemma in lemmas
                   for r in batch_verify(lemma, trials=args.trials, seed=args.seed)]
    if args.format == "csv":
        lines = ["lemma,instances,exact_pass,witness_found,measured,fail"]
        by_lemma: dict[str, list] = {}
        for r in reports:
            by_lemma.setdefault(r.lemma_id, []).append(r)
        for lemma in sorted(by_lemma):
            verdicts = [r.verdict for r in by_lemma[lemma]]
            counts = [verdicts.count(v) for v in (EXACT_PASS, WITNESS_FOUND, MEASURED, FAIL)]
            lines.append(",".join(map(str, [lemma, len(verdicts), *counts])))
        _emit(args, "\n".join(lines))
    else:
        _emit(args, "\n".join(_dumps(r.to_json()) for r in reports))
    return 0


def _cmd_trace(args) -> int:
    if args.set_ is not None:
        if not args.field:
            args.usage_error("trace with --set requires --field")
        spec = parse_descriptor(args.field)
        trace = run_proof_trace(FqSet.from_literal(spec, args.set_), args.alpha, kappa=args.kappa)
        lines = [_dumps(trace.to_json())]
    else:
        lines = []  # a ProofTrace holds q-length bitmasks; the batch keeps only its JSON line
        index = degenerate = 0
        while len(lines) < args.trials:
            rng = np.random.default_rng([args.seed, index])
            desc = args.field or TRACE_FIELDS[index % len(TRACE_FIELDS)]
            spec = parse_descriptor(desc)
            if spec.q - 1 < TRACE_MIN_SIZE:
                raise SizeInfeasible(f"a trace batch draws at least {TRACE_MIN_SIZE} "
                                     f"nonzero elements; {desc} has {spec.q - 1}")
            size = int(rng.integers(TRACE_MIN_SIZE, min(11, spec.q)))
            A = random_set(rng, spec, size, nonzero=True)
            index += 1
            try:
                trace = run_proof_trace(A, args.alpha, kappa=args.kappa)
                lines.append(_dumps(trace.to_json()))
                degenerate = 0
            except TraceDegenerate:
                degenerate += 1
                if degenerate == TRACE_DEGENERATE_LIMIT:
                    raise TraceDegenerate(f"{degenerate} degenerate draws in a row "
                                          f"on {desc} at alpha = {args.alpha}") from None
    _emit(args, "\n".join(lines))
    return 0


def _cmd_survey(args) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError:
        args.usage_error(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    config = SurveyConfig(
        fields=tuple(s.strip() for s in args.fields.split(",") if s.strip()),
        sizes=sizes,
        samplers=tuple(s.strip() for s in args.samplers.split(",") if s.strip()),
        trials=args.trials,
        seed=args.seed,
        alpha_policy=args.alpha_policy,
        out=args.out,
        kind=args.kind,
    )
    path = run_survey(config)
    print(path)
    return 0


def _cmd_cover(args) -> int:
    spec = parse_descriptor(args.field)
    count, shifts = covering_number(FqSet.from_literal(spec, args.target),
                                    FqSet.from_literal(spec, args.tile),
                                    1 if args.sign == "+" else -1)
    if args.format == "json":
        _emit(args, _dumps({"count": count, "shifts": shifts}))
    else:
        _emit(args, f"count {count}\nshifts {','.join(str(s) for s in shifts)}")
    return 0


_COMMANDS = {
    "field": _cmd_field,
    "setop": _cmd_setop,
    "energy": _cmd_energy,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "survey": _cmd_survey,
    "cover": _cmd_cover,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FqLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
