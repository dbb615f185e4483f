"""Command-line front end.

Commands: analyze, synthesize, verify, coprime-factorization, family.  Plant
descriptions live in JSON files (see README); every report is available both
human-readable and as deterministic JSON (--json) in which all rational
values appear as exact strings.

Exit codes: 0 verified, 2 parse/usage error, 3 unknown or, from verify, not_stable,
4 synthesis failure, 5 out of resources (a MemoryError or RecursionError).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import coprime as cp
from .closedloop import feedback_matrix
from .elemfactor import WitnessPair, factor_ideals
from .exact import Poly
from .rings import (
    RingDescriptor,
    RingElement,
    TransferFunction,
    check_literal_digits,
    contains,
    format_poly,
    is_causal,
    parse_ring_element,
    parse_transfer_function,
    ring_from_json,
)
from .synthesis import SynthesisConfig, SynthesisError, synthesize

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNKNOWN = 3
EXIT_SYNTHESIS = 4
EXIT_RESOURCE = 5
STATUS_EXIT = dict(verified=EXIT_OK, unknown=EXIT_UNKNOWN, not_stable=EXIT_UNKNOWN, synthesis_failed=EXIT_SYNTHESIS)


class PlantFileError(Exception):
    pass


# ---------------------------------------------------------------------------
# Plant files
# ---------------------------------------------------------------------------

def _json_int(text: str) -> int:
    check_literal_digits(text)
    return int(text)


def _parse_elem_value(desc: RingDescriptor, obj, where: str):
    try:
        return desc.value_from_json(obj)
    except ValueError as exc:
        raise PlantFileError(f"{where}: {exc}")


class PlantFile:
    """Parsed plant description: ring, plant, optional controller and config."""

    def __init__(self, desc, plant, controller, config):
        self.descriptor = desc
        self.plant = plant
        self.controller = controller
        self.config = config

    @staticmethod
    def load(path: str) -> "PlantFile":
        try:
            with open(path) as fh:
                doc = json.load(fh, parse_int=_json_int)
        except OSError as exc:
            raise PlantFileError(f"cannot read {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise PlantFileError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
        except RecursionError:
            raise PlantFileError(f"{path}: JSON nested too deeply")
        except ValueError as exc:  # a long JSON integer (_json_int) or bytes that are not UTF-8
            raise PlantFileError(f"{path}: {exc}")
        return PlantFile.from_dict(doc, where=path)

    @staticmethod
    def from_dict(doc: dict, where: str = "<doc>") -> "PlantFile":
        if not isinstance(doc, dict) or "ring" not in doc or "plant" not in doc:
            raise PlantFileError(f"{where}: document needs 'ring' and 'plant' sections")
        ring = doc["ring"]
        if not isinstance(ring, dict):
            raise PlantFileError(f"{where}: ring must be an object")
        try:
            desc = ring_from_json(ring)
        except ValueError as exc:
            raise PlantFileError(f"{where}: {exc}")
        plant_obj = doc["plant"]
        if not isinstance(plant_obj, dict):
            raise PlantFileError(f"{where}: plant must be an object with 'num' and 'den'")
        num = _parse_elem_value(desc, plant_obj.get("num"), f"{where}: plant.num")
        den = _parse_elem_value(desc, plant_obj.get("den"), f"{where}: plant.den")
        try:
            plant = TransferFunction.make(desc, num, den)
        except ZeroDivisionError as exc:
            raise PlantFileError(f"{where}: {exc}")
        controller = None
        if "controller" in doc:
            if not isinstance(doc["controller"], dict):
                raise PlantFileError(f"{where}: controller must be an object with 'num' and 'den'")
            cnum = _parse_elem_value(desc, doc["controller"].get("num"), f"{where}: controller.num")
            cden = _parse_elem_value(desc, doc["controller"].get("den"), f"{where}: controller.den")
            try:
                controller = TransferFunction.make(desc, cnum, cden)
            except ZeroDivisionError as exc:
                raise PlantFileError(f"{where}: controller: {exc}")
        config = doc.get("config", {})
        if not isinstance(config, dict):
            raise PlantFileError(f"{where}: config must be an object")
        unknown = sorted(set(config) - {"r1", "r2"})
        if unknown:
            raise PlantFileError(f"{where}: unknown config key {unknown[0]!r} (allowed: r1, r2)")
        config = dict(config)
        for key in config:
            value = _parse_elem_value(desc, config[key], f"{where}: config.{key}")
            try:
                config[key] = RingElement(desc, value)
            except ValueError as exc:
                raise PlantFileError(f"{where}: config.{key}: {exc}")
        return PlantFile(desc, plant, controller, config)

    def to_dict(self) -> dict:
        out = {"ring": self.descriptor.json(), "plant": _pair_json(self.plant)}
        if self.controller is not None:
            out["controller"] = _pair_json(self.controller)
        return out


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def latex_tf(tf: TransferFunction) -> str:
    num, den = tf.display_pair()
    return f"\\frac{{{tf.descriptor.latex(num)}}}{{{tf.descriptor.latex(den)}}}"


def _pair_json(tf: TransferFunction) -> dict:
    return {"num": tf.descriptor.value_json(tf.num), "den": tf.descriptor.value_json(tf.den)}


def _tf_json(tf: TransferFunction) -> dict:
    return {"display": str(tf), **_pair_json(tf)}


def _trace_json(trace) -> dict:
    out = {"kind": trace.kind}
    for name in trace._fields:
        value = getattr(trace, name)
        if isinstance(value, Poly):
            value = format_poly(value)
        elif isinstance(value, cp.QuadIdeal):
            value = _ideal_json(value)
        elif not isinstance(value, int):
            value = str(value)
        out[name] = value
    return out


def _witness_json(w: WitnessPair) -> dict:
    return {
        "lambda1": str(w.lam1),
        "lambda2": str(w.lam2),
        "u": str(w.u),
        "v": str(w.v),
        "trace": _trace_json(w.trace),
    }


def _ideal_json(ideal: cp.QuadIdeal) -> dict:
    return {"basis": [[ideal.a, 0], [ideal.b, ideal.c]], "norm": ideal.norm, "m": ideal.m}


def _cf_json(v: cp.CFVerdict) -> dict:
    out = {"verdict": v.kind.value}
    if v.kind == cp.CFKind.EXISTS:
        out.update(n=str(v.n), d=str(v.d), x=str(v.x), y=str(v.y))
    elif v.kind == cp.CFKind.NOT_EXISTS:
        out["certificate_ideal"] = _ideal_json(v.ideal)
    else:
        out["reason"] = v.reason
    return out


class Report:
    """Accumulates ordered key/value output plus a status, a key of ``STATUS_EXIT``."""

    def __init__(self, command: str, argv: list[str]):
        self.data: dict = {"command": command, "argv": argv}
        self.lines: list[str] = []
        self.status = "verified"

    def put(self, key: str, value, line: str | None = None) -> None:
        self.data[key] = value
        if line is not None:
            self.lines.append(line)

    def say(self, line: str) -> None:
        self.lines.append(line)

    def finish(self, as_json: bool) -> str:
        self.data["status"] = self.status
        if as_json:
            return json.dumps(self.data, indent=2)
        return "\n".join(self.lines + [f"status: {self.data['status']}"])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _config_from(pf: PlantFile, args) -> SynthesisConfig:
    r = dict(pf.config)
    for key in ("r1", "r2"):
        text = getattr(args, key)
        if text is not None:
            try:
                r[key] = parse_ring_element(pf.descriptor, text)
            except (ValueError, ZeroDivisionError) as exc:
                raise PlantFileError(f"--{key}: {exc}")
    return SynthesisConfig(**r)


def cmd_analyze(args, rep: Report) -> None:
    pf = PlantFile.load(args.plantfile)
    p = pf.plant
    desc = pf.descriptor
    rep.put("ring", str(desc), f"ring: {desc}")
    rep.put("plant", _tf_json(p), f"plant (canonical): {p}")
    in_ring = contains(p)
    rep.put("in_ring", in_ring is not None, f"lies in A: {in_ring is not None}")
    causal = is_causal(p)
    rep.put("causal", causal, f"causal: {causal}")
    if not causal:
        rep.say("plant is not causal; stabilizability analysis does not apply")
        rep.put("stabilizable", "not_applicable")
        rep.status = "unknown"
        return
    if in_ring is not None:
        rep.put("stabilizable", True, "stabilizable: True (plant in A; zero controller works)")
        return
    ideals = factor_ideals(p)
    if ideals.representation is not None:
        n, d, w = ideals.representation
        rep.put("representation", {"n": str(n), "d": str(d), "gcd": format_poly(w)},
                f"A-representation: n = {n}, d = {d}, gcd = {format_poly(w)}")
    witness = next(ideals.witnesses(), None)
    if witness is None:  # a plant that is not comaximal gets no witness
        ideal = ideals.certificate
        rep.put("stabilizable", False, f"stabilizable: False (G = (num, den) = {ideal} is not invertible)")
        rep.put("certificate_ideal", _ideal_json(ideal))
        return
    rep.put("witness", _witness_json(witness), f"factor witnesses: lambda1 = {witness.lam1}, lambda2 = {witness.lam2}")
    rep.say(f"  Bezout: ({witness.u})*lambda1 + ({witness.v})*lambda2 = 1")
    rep.put("stabilizable", True, "stabilizable: True (comaximality witnessed)")


def cmd_synthesize(args, rep: Report) -> None:
    pf = PlantFile.load(args.plantfile)
    p = pf.plant
    cfg = _config_from(pf, args)
    rep.put("ring", str(pf.descriptor), f"ring: {pf.descriptor}")
    rep.put("plant", _tf_json(p), f"plant: {p}")
    try:
        result = synthesize(p, cfg)
    except SynthesisError as exc:
        rep.put("error", str(exc), f"synthesis failed: {exc}")
        rep.put("failed_condition", exc.condition)
        if exc.certificate is not None:
            rep.put("certificate_ideal", _ideal_json(exc.certificate))
        rep.status = "synthesis_failed"
        return
    rep.put("controller", _tf_json(result.controller), f"controller: {result.controller}")
    if args.latex:
        rep.put("controller_latex", latex_tf(result.controller), f"  latex: {latex_tf(result.controller)}")
    rep.put("omega", result.omega, f"omega: {result.omega}")
    rep.put("trivial", result.trivial)
    if not result.trivial:
        rep.put("a1", str(result.a1), f"a1: {result.a1}")
        rep.put("a2", str(result.a2), f"a2: {result.a2}")
        rep.put("r1", str(result.r1))
        rep.put("r2", str(result.r2))
        rep.put("witness", _witness_json(result.witness))
        rep.put(
            "condition_ii_products",
            [str(e) for e in result.condition_ii_products],
            "condition (ii) products all lie in A",
        )
    h = result.closed_loop
    rep.put(
        "closed_loop",
        {
            "h11": str(h.h11), "h12": str(h.h12), "h21": str(h.h21), "h22": str(h.h22),
            "stable": h.stable,
        },
        f"closed loop stable: {h.stable}",
    )


def cmd_verify(args, rep: Report) -> None:
    pf = PlantFile.load(args.plantfile)
    p = pf.plant
    if args.controller is not None:
        try:
            c = parse_transfer_function(pf.descriptor, args.controller)
        except (ValueError, ZeroDivisionError) as exc:
            raise PlantFileError(f"controller literal: {exc}")
    elif pf.controller is not None:
        c = pf.controller
    else:
        raise PlantFileError("no controller given (positional literal or 'controller' in the file)")
    rep.put("plant", _tf_json(p), f"plant: {p}")
    rep.put("controller", _tf_json(c), f"controller: {c}")
    try:
        h = feedback_matrix(p, c)
    except ZeroDivisionError:
        rep.put("well_posed", False, "loop is ill-posed: 1 + p*c = 0")
        rep.put("stable", False)
        rep.status = "not_stable"
        return
    entries = {}
    for name, tf, element in zip(("h11", "h12", "h21", "h22"), h.entries(), h.members):
        member = element is not None
        entries[name] = {"value": str(tf), "in_ring": member}
        rep.say(f"{name} = {tf}   in A: {member}")
        if args.latex:
            rep.say(f"  latex: {latex_tf(tf)}")
    rep.put("H", entries)
    rep.put("well_posed", True)
    rep.put("stable", h.stable, f"stable: {h.stable}")
    if not h.stable:
        rep.status = "not_stable"


def cmd_coprime_factorization(args, rep: Report) -> None:
    pf = PlantFile.load(args.plantfile)
    p = pf.plant
    if p.is_zero():
        raise PlantFileError("coprime factorization of the zero plant is trivial; give a nonzero plant")
    rep.put("ring", str(pf.descriptor), f"ring: {pf.descriptor}")
    rep.put("plant", _tf_json(p), f"plant: {p}")
    verdict = cp.cf_exists(p)
    rep.put("cf", _cf_json(verdict))
    if verdict.kind == cp.CFKind.EXISTS:
        rep.say(f"coprime factorization exists: p = ({verdict.n})/({verdict.d})")
        rep.say(f"  Bezout: ({verdict.x})*n + ({verdict.y})*d = 1")
    elif verdict.kind == cp.CFKind.NOT_EXISTS:
        rep.say(f"no coprime factorization: certificate ideal {verdict.ideal} is non-principal")
    else:
        rep.say(f"unknown: {verdict.reason}")
        rep.status = "unknown"


def cmd_family(args, rep: Report) -> None:
    try:
        params = cp.FamilyParams(args.x, args.y)
        inst = cp.generate_family_instance(params)
    except ValueError as exc:
        raise PlantFileError(str(exc))
    desc = inst.a.descriptor
    rep.put("params", {"x": args.x, "y": args.y, "m": params.m}, f"family instance over {desc} (m = {params.m})")
    rep.put(
        "instance",
        {"a": str(inst.a), "b": str(inst.b), "a_prime": str(inst.a_prime), "b_prime": str(inst.b_prime)},
        f"a = {inst.a}, b = {inst.b}, a' = {inst.a_prime}, b' = {inst.b_prime}",
    )
    report = cp.verify_nonexistence_instance(inst)
    rep.put(
        "conditions",
        {
            "i": "holds" if report.cond_i else "fails",
            "ii": report.cond_ii.value,
            "ii_causal": report.cond_ii_causal,
            "ii_cf": _cf_json(report.cf_verdict),
            "iii": report.cond_iii.value,
            "iii_via": report.cond_iii_via,
        },
        f"condition (i): {'holds' if report.cond_i else 'fails'}; "
        f"(ii): {report.cond_ii.value}; (iii): {report.cond_iii.value} (via {report.cond_iii_via})",
    )
    if report.lambda1 is not None:
        rep.say(f"  split witness: lambda1 = {report.lambda1}, lambda2 = {report.lambda2}")
    plant = report.plant
    rep.put("plant", _tf_json(plant), f"plant: {plant}")
    try:
        result = synthesize(plant)
    except SynthesisError as exc:
        rep.put("error", str(exc), f"synthesis failed: {exc}")
        rep.status = "synthesis_failed"
        return
    rep.put("controller", _tf_json(result.controller), f"controller: {result.controller}")
    stable = result.closed_loop.stable
    rep.put("stable", stable, f"closed loop stable: {stable}")
    if report.cond_ii == cp.Verdict.UNKNOWN:
        rep.status = "unknown"


def _one_line(message) -> str:
    return "error: " + " ".join(str(message).splitlines())


class _Parser(argparse.ArgumentParser):
    """Usage errors print one ``error:`` line and exit 2 (subcommands inherit this)."""

    def error(self, message):
        self.exit(EXIT_PARSE, _one_line(message) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ringstab",
        description="Exact stabilizability analysis and controller synthesis over "
        "Z[sqrt(m)i] and the no-unit-delay ring Q[x^2,x^3].",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(sp, plantfile=True, latex=False):
        if plantfile:
            sp.add_argument("plantfile", help="JSON plant description")
        sp.add_argument("--json", action="store_true", help="machine-readable report")
        if latex:
            sp.add_argument("--latex", action="store_true", help="include LaTeX renderings")

    sp = sub.add_parser("analyze", help="causality, canonical form, factor witnesses")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("synthesize", help="construct and verify a stabilizing controller")
    common(sp, latex=True)
    sp.add_argument("--r1", help="free parameter r1 (ring element literal)")
    sp.add_argument("--r2", help="free parameter r2 (ring element literal)")
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("verify", help="check closed-loop stability of a plant/controller pair")
    common(sp, latex=True)
    sp.add_argument("controller", nargs="?", help="controller literal, e.g. '(-1+1*i5)/(2)'")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("coprime-factorization", help="decide existence of a coprime factorization")
    common(sp)
    sp.set_defaults(func=cmd_coprime_factorization)

    sp = sub.add_parser("family", help="generate and fully check a Z[sqrt(xy-1)i] instance")
    common(sp, plantfile=False)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=int, required=True)
    sp.set_defaults(func=cmd_family)
    return parser


def _positional(arg: str) -> bool:
    """True for an argument argparse reads as a value, not as an option."""
    return not arg.startswith("-") or arg[1:].isdecimal()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        # argparse binds verify's optional controller positional together with
        # plantfile, so a literal after an option arrives here as an extra, and
        # one after ``--`` (say ``-- -1+i5``) together with the ``--``.
        if args.cmd == "verify" and args.controller is None:
            if len(extras) == 2 and extras[0] == "--":
                args.controller = extras.pop()
                extras.clear()
            elif len(extras) == 1 and _positional(extras[0]):
                args.controller = extras.pop()
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    # Reports print products of the inputs, which can pass CPython's limit on
    # int/str conversion (3.10.7 on).  The options were parsed under the limit,
    # and plant files and literals keep it through check_literal_digits.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(args, Report(args.cmd, argv))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(args, rep: Report) -> int:
    try:
        args.func(args, rep)
        text = rep.finish(as_json=args.json)
    except PlantFileError as exc:
        print(_one_line(exc), file=sys.stderr)
        return EXIT_PARSE
    except (MemoryError, RecursionError) as exc:
        print(_one_line(f"{args.cmd}: out of resources ({type(exc).__name__})"), file=sys.stderr)
        return EXIT_RESOURCE
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``); keep the exit-time flush quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return STATUS_EXIT[rep.status]


if __name__ == "__main__":
    sys.exit(main())
