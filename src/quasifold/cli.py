"""Command-line surface.

Commands: validate, atlas, transition, polytope, verify, gallery.
Exit codes: 0 success, 1 a check failed, 2 input error or an unsupported
case, 3 an internal error (any other exception, one line on stderr).  The
seed comes from --seed, then the QUASIFOLD_SEED environment variable, then
the input document's options, then 0.  ``documents.schema_accepts`` decides
whether an input document fits the input schema; ``jsonschema``, which
costs more to import than a small run takes, is imported only to explain
a rejection.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .atlas import Atlas
from .documents import (InputError, atlas_section, build_report,
                        document_to_triple, load_document, load_input_schema,
                        polytope_section, render_json_report,
                        render_text_report, schema_accepts,
                        specialize_document, transition_section,
                        validation_section, verification_section)
from .gallery import GALLERY_NAMES, load_gallery
from .scalars import sample_text
from .triples import validate
from .verify import TrialConfig, verify_triple

__all__ = ["main"]


def _add_common_flags(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--param", default=None, metavar="SYM=DECIMAL",
                        help="numeric sample for the field parameter")
    parser.add_argument("--substitute", default=None, metavar="SYM=RATIONAL",
                        help="exact substitution of the field parameter")


def _add_verify_flags(parser):
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--word-length", type=int, default=None)


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing never changes
    it, so every call of ``main`` shares it."""
    parser = argparse.ArgumentParser(
        prog="quasifold",
        description="exact affine atlases of complex toric quasifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("validate", "atlas", "polytope", "verify", "transition"):
        p = sub.add_parser(name)
        p.add_argument("input", help="path to an input JSON document")
        _add_common_flags(p)
        if name == "verify":
            _add_verify_flags(p)
        if name == "transition":
            p.add_argument("--from", dest="source", required=True,
                           metavar="I,J,...", help="source cone index set")
            p.add_argument("--to", dest="target", required=True,
                           metavar="I,J,...", help="target cone index set")

    p = sub.add_parser("gallery")
    p.add_argument("name", help=f"one of: {', '.join(GALLERY_NAMES)}")
    _add_common_flags(p)
    _add_verify_flags(p)
    return parser


def _parse_assignment(text, expected_symbol, flag):
    if "=" not in text:
        raise InputError(f"{flag} expects SYMBOL=VALUE, got {text!r}")
    symbol, _, value = text.partition("=")
    if expected_symbol is not None and symbol != expected_symbol:
        raise InputError(
            f"{flag}: symbol {symbol!r} does not match the domain parameter "
            f"{expected_symbol!r}")
    try:
        return Fraction(value)
    except ValueError as exc:
        raise InputError(f"{flag}: {value!r} is not a decimal or fraction") from exc


def _load_input(args):
    if args.command == "gallery":
        return load_gallery(args.name)
    try:
        with open(args.input) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.input}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    schema = load_input_schema()
    if not schema_accepts(schema, data):
        import jsonschema  # only here: importing it costs more than a small run
        error = jsonschema.exceptions.best_match(
            jsonschema.validators.validator_for(schema)(schema).iter_errors(data))
        if error is None:
            raise RuntimeError(f"{args.input}: the input schema check rejects "
                               "a document that jsonschema accepts")
        path = "/".join(str(p) for p in error.absolute_path) or "(document root)"
        raise InputError(f"{args.input}: schema violation at {path}: "
                         f"{error.message}") from error
    return load_document(data, name=os.path.basename(args.input))


def _resolve_seed(args, doc):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QUASIFOLD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"QUASIFOLD_SEED={env!r} is not an integer") from exc
    return int(doc.options.get("seed", 0))


def _parse_cone(text, flag):
    try:
        return tuple(sorted(int(part) for part in text.split(",")))
    except ValueError as exc:
        raise InputError(f"{flag}: expected comma-separated integers, "
                         f"got {text!r}") from exc


def _trial_config(args, doc, seed, parameter_sample):
    options = doc.options
    return TrialConfig(
        samples=(args.samples if getattr(args, "samples", None) is not None
                 else int(options.get("samples", 100))),
        seed=seed,
        tolerance=(args.tolerance if getattr(args, "tolerance", None) is not None
                   else float(options.get("tolerance", 1e-9))),
        word_length=(args.word_length if getattr(args, "word_length", None) is not None
                     else int(options.get("word_length", 3))),
        parameter_sample=parameter_sample,
    )


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
            parameter_sample = Fraction(str(sample_opt))
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
    probe_directions = int(doc.options.get("probe_directions", 64))
    report_validation = validate(triple, probe_directions=probe_directions,
                                 seed=seed, parameter_sample=parameter_sample)
    sections = {"validation": validation_section(report_validation)}
    if fan_result is not None and args.command in ("polytope", "atlas",
                                                   "gallery", "validate"):
        sections["polytope"] = polytope_section(doc, fan_result, triple)

    failed = not report_validation.passed

    if args.command in ("atlas", "gallery") and not failed:
        atlas = Atlas.compile(triple)
        sections["atlas"] = atlas_section(triple, atlas)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"quasifold: error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
