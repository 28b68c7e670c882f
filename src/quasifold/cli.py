"""Command-line surface.

Commands: validate, atlas, transition, polytope, verify, gallery.
Exit codes: 0 success, 1 a check failed, 2 input error or an unsupported
case, 3 an internal error (any other exception, one line on stderr).  The
seed comes from --seed, then the QUASIFOLD_SEED environment variable, then
the input document's options, then 0.  ``documents.schema_violation``
decides whether an input document fits the input schema and words the
refusal, with the standard library alone.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction

from .atlas import Atlas
from .documents import atlas_section  # unused: perfbench/tracing.py spans it here
from .documents import (InputError, atlas_report, build_report, decimal_text,
                        document_to_triple, load_document, load_input_schema,
                        polytope_section, render_json_report,
                        render_text_report, schema_violation,
                        specialize_document, transition_section,
                        validation_section, verification_section)
from .gallery import GALLERY_NAMES, load_gallery
from .scalars import require_readable, sample_text
from .triples import validate
from .verify import TrialConfig, verify_triple

__all__ = ["entry", "main"]


def _ascii(kind):
    """``kind`` (int or float) read from ASCII text alone, as both would read
    any Unicode digit; argparse words a refusal by the type's name."""
    def read(text):
        if not text.isascii():
            raise ValueError(text)
        return kind(text)
    read.__name__ = kind.__name__
    return read


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing never changes
    it, so every call of ``main`` shares it."""
    parser = argparse.ArgumentParser(
        prog="quasifold",
        description="exact affine atlases of complex toric quasifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--seed", type=_ascii(int))
    common.add_argument("--param", metavar="SYM=DECIMAL",
                        help="numeric sample for the field parameter")
    common.add_argument("--substitute", metavar="SYM=RATIONAL",
                        help="exact substitution of the field parameter")
    trials = argparse.ArgumentParser(add_help=False, parents=[common])
    trials.add_argument("--samples", type=_ascii(int))
    trials.add_argument("--tolerance", type=_ascii(float))
    trials.add_argument("--word-length", type=_ascii(int))

    for name in ("validate", "atlas", "polytope", "verify", "transition"):
        p = sub.add_parser(name, parents=[trials if name == "verify" else common])
        p.add_argument("input", help="path to an input JSON document")
        if name == "transition":
            p.add_argument("--from", dest="source", required=True,
                           metavar="I,J,...", help="source cone index set")
            p.add_argument("--to", dest="target", required=True,
                           metavar="I,J,...", help="target cone index set")

    p = sub.add_parser("gallery", parents=[trials])
    p.add_argument("name", help=f"one of: {', '.join(GALLERY_NAMES)}")
    return parser


def _parse_assignment(text, expected_symbol, flag):
    if "=" not in text:
        raise InputError(f"{flag} expects SYMBOL=VALUE, got {text!r}")
    symbol, _, value = text.partition("=")
    require_readable(value, f"{flag}: value")
    if expected_symbol is not None and symbol != expected_symbol:
        raise InputError(
            f"{flag}: symbol {symbol!r} does not match the domain parameter "
            f"{expected_symbol!r}")
    unreadable = f"{flag}: {value!r} is not a decimal or fraction"
    if not value.isascii():   # Fraction would read any Unicode digit
        raise InputError(unreadable)
    # a decimal exponent is bounded before Fraction computes 10^|e|, at ten
    # times the digits Python converts to text: past the limit, --param still
    # writes its sample exactly (by Decimal) and --substitute refuses by digits
    mantissa, _, exponent = value.lower().partition("e")
    try:
        digits = sum(map(str.isdigit, mantissa)) + abs(int(exponent))
    except ValueError:  # no exponent, or not a number: Fraction decides
        digits = 0
    bound = 10 * sys.get_int_max_str_digits()
    if bound and digits > bound:
        raise InputError(f"{flag}: the exponent of {value!r} could give more than "
                         f"{bound} digits; decimal values allow at most {bound} digits")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:   # not a number, or n/0
        raise InputError(unreadable) from exc


def _load_input(args):
    if args.command == "gallery":
        return load_gallery(args.name)
    try:
        with open(args.input, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.input}: not UTF-8 text at byte {exc.start}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.input}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:   # nested past the recursion limit
        raise InputError(f"{args.input}: arrays and objects nest too deeply") from exc
    except ValueError:  # an integer literal past the digit limit
        require_readable(text, args.input)
        raise
    violation = schema_violation(load_input_schema(), data)
    if violation is not None:
        path, message = violation
        where = "/".join(map(str, path)) or "(document root)"
        raise InputError(f"{args.input}: schema violation at {where}: {message}")
    return load_document(data, name=os.path.basename(args.input))


def _resolve_seed(args, doc):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QUASIFOLD_SEED")
    if env is not None:
        try:
            return _ascii(int)(env)
        except ValueError as exc:
            raise InputError(f"QUASIFOLD_SEED={env!r} is not an integer") from exc
    return int(doc.options.get("seed", 0))


def _parse_cone(text, flag):
    try:
        return tuple(sorted(map(_ascii(int), text.split(","))))
    except ValueError as exc:
        raise InputError(f"{flag}: expected comma-separated integers, "
                         f"got {text!r}") from exc


def _trial_config(args, doc, seed, parameter_sample):
    """Each setting is its flag, else the document's option, else
    TrialConfig's default."""
    flags = vars(args)
    return TrialConfig(seed=seed, parameter_sample=parameter_sample, **{
        name: kind(doc.options[name]) if flags[name] is None else flags[name]
        for name, kind in (("samples", int), ("tolerance", float),
                           ("word_length", int))
        if flags[name] is not None or name in doc.options})


def _require_parameter(doc, source):
    if doc.domain.kind != "rational_function":
        raise InputError(f"{source}: only parameter-field documents take "
                         "a parameter sample")


def _require_positive(doc, value, what):
    """Refuse a parameter value <= 0 where the domain assumes it positive."""
    if (value <= 0 and doc.domain.kind == "rational_function"
            and doc.domain.parameter_positivity):
        raise InputError(f"{what} {sample_text(value)} is not positive, but "
                         f"the domain assumes {doc.domain.generator_symbol} > 0")


def run(args) -> tuple[int, str]:
    """Execute one command; returns (exit_code, rendered_report)."""
    doc = _load_input(args)
    # the document's own domain, before --substitute specializes it
    if doc.options.get("parameter_sample") is not None:
        _require_parameter(doc, "options.parameter_sample")
    if args.substitute is not None:
        value = _parse_assignment(args.substitute,
                                  doc.domain.generator_symbol, "--substitute")
        _require_positive(doc, value, "--substitute: value")
        doc = specialize_document(doc, value)
    parameter_sample, source = None, None
    if args.param is not None:
        _require_parameter(doc, "--param")
        parameter_sample = _parse_assignment(
            args.param, doc.domain.generator_symbol, "--param")
        source = "--param"
    elif doc.domain.kind == "rational_function":
        sample_opt = doc.options.get("parameter_sample")
        if sample_opt is not None:
            text = decimal_text(sample_opt, "options.parameter_sample")
            require_readable(text, "options.parameter_sample")
            parameter_sample = Fraction(text)
            source = "options.parameter_sample"
        elif doc.domain.default_sample is not None:
            parameter_sample = doc.domain.default_sample
    if source is not None:
        _require_positive(doc, parameter_sample, f"{source}: sample")
    seed = _resolve_seed(args, doc)
    # bad verification flags are refused before any check can fail
    cfg = (_trial_config(args, doc, seed, parameter_sample)
           if args.command in ("verify", "gallery") else None)

    triple, fan_result = document_to_triple(doc)
    probe = ({"probe_directions": int(doc.options["probe_directions"])}
             if "probe_directions" in doc.options else {})
    report_validation = validate(triple, seed=seed,
                                 parameter_sample=parameter_sample, **probe)
    sections = {"validation": validation_section(report_validation)}
    if fan_result is not None and args.command in ("polytope", "atlas",
                                                   "gallery", "validate"):
        sections["polytope"] = polytope_section(doc, fan_result, triple)

    failed = not report_validation.passed

    if args.command in ("atlas", "gallery") and not failed:
        atlas = Atlas.compile(triple)
        sections["atlas"] = atlas_report(triple, atlas)
        if sections["atlas"]["cocycle"]["violations"]:
            failed = True
    else:
        atlas = None

    if args.command == "transition" and not failed:
        source = _parse_cone(args.source, "--from")
        target = _parse_cone(args.target, "--to")
        for cone, flag in ((source, "--from"), (target, "--to")):
            if cone not in triple.fan.max_cones:
                raise InputError(f"{flag}: {cone} is not a maximal cone; "
                                 f"cones: {list(triple.fan.max_cones)}")
        sections["transition"] = transition_section(
            Atlas(triple).terms(target), source, target)

    if cfg is not None and not failed:
        summary = verify_triple(triple, cfg, atlas=atlas)
        sections["verification"] = verification_section(summary)
        if not summary.passed:
            failed = True

    report = build_report(args.command, doc, seed, sections,
                          parameter_sample=parameter_sample)
    if args.format == "json":
        rendered = render_json_report(report) + "\n"
    else:
        rendered = render_text_report(report)
    return (1 if failed else 0), rendered


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, rendered = run(args)
    except ValueError as exc:  # every input error and refusal is a ValueError
        print(f"quasifold: error: {exc}", file=sys.stderr)
        return 2
    except NotImplementedError as exc:
        print(f"quasifold: error: unsupported case: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"quasifold: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        with (open(args.out, "w") if args.out
              else contextlib.nullcontext(sys.stdout)) as handle:
            handle.write(rendered)
            handle.flush()  # a report that fits stdout's buffer fails here
    except OSError as exc:
        if not args.out:
            # a closed pipe: fd 1 goes to os.devnull, so that no later flush
            # fails again (the recipe in the docs of the signal module)
            with contextlib.suppress(OSError, ValueError):  # stdout has no fd
                fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
        print(f"quasifold: error: cannot write {args.out or 'the report'}: {exc}",
              file=sys.stderr)
        return 2
    return code


def _hooked():
    """A trace or profile hook, or from 3.12 a ``sys.monitoring`` tool (how
    cProfile hooks in there), is set."""
    monitoring = getattr(sys, "monitoring", None)
    return bool(sys.gettrace() or sys.getprofile() or monitoring
                and any(map(monitoring.get_tool, range(6))))


def _flushed():
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe or stream
        return False
    return True


def entry():
    """The console script and ``python -m quasifold``: ``main``, then
    ``os._exit`` once stdout and stderr are flushed and the ``atexit``
    callbacks have run, so the interpreter frees none of its objects (as
    mypy's ``hard_exit`` does; that teardown is about 10 ms of a small
    run).  ``sys.exit`` stays under a hook (cProfile writes its stats after
    the module returns), under ``python -i``, after a failed flush and on
    argparse's own exits, whose ``SystemExit`` passes through; the
    callbacks run once, as ``_run_exitfuncs`` unregisters them."""
    code = main()
    if not (_hooked() or sys.flags.inspect) and _flushed():
        atexit._run_exitfuncs()
        if _flushed():
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    entry()
