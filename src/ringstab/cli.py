"""Command-line front end.

Commands: analyze, synthesize, verify, coprime-factorization, family.  Plant
descriptions live in JSON files (see README); every report is available both
human-readable and as deterministic JSON (--json) in which all rational
values appear as exact strings.

Exit codes: 0 verified, 2 parse/usage error, 3 unverified or unknown,
4 synthesis failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import coprime as cp
from .closedloop import feedback_matrix
from .elemfactor import (
    DelayTrace,
    IdealTrace,
    QuadraticTrace,
    ReciprocalTrace,
    WitnessPair,
    witness_candidates,
)
from .exact import Poly, QuadElem, poly_gcd
from .rings import (
    RingDescriptor,
    RingElement,
    TransferFunction,
    causal_representation,
    contains,
    delay,
    format_element_value,
    is_causal,
    parse_ring_element,
    parse_transfer_function,
    quadratic,
)
from .synthesis import SynthesisConfig, SynthesisError, synthesize

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNKNOWN = 3
EXIT_SYNTHESIS = 4


class PlantFileError(Exception):
    pass


# ---------------------------------------------------------------------------
# Plant files
# ---------------------------------------------------------------------------

def _parse_elem_value(desc: RingDescriptor, obj, where: str):
    if desc.is_quadratic:
        if not isinstance(obj, dict) or not {"re", "im"} >= set(obj) or "re" not in obj:
            raise PlantFileError(f"{where}: quadratic element needs {{'re': 'p/q', 'im': 'p/q'}}")
        try:
            return QuadElem.of(Fraction(obj["re"]), Fraction(obj.get("im", "0")), desc.m)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise PlantFileError(f"{where}: bad rational literal ({exc})")
    if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
        raise PlantFileError(f"{where}: delay element needs {{'coeffs': ['p/q', ...]}} ascending")
    try:
        return Poly.from_list([Fraction(c) for c in obj["coeffs"]])
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise PlantFileError(f"{where}: bad rational literal ({exc})")


def _elem_to_json(desc: RingDescriptor, value):
    if desc.is_quadratic:
        return {"re": str(value.re), "im": str(value.im)}
    return {"coeffs": [str(c) for c in value.coeffs]}


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
                doc = json.load(fh)
        except OSError as exc:
            raise PlantFileError(f"cannot read {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise PlantFileError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
        return PlantFile.from_dict(doc, where=path)

    @staticmethod
    def from_dict(doc: dict, where: str = "<doc>") -> "PlantFile":
        if not isinstance(doc, dict) or "ring" not in doc or "plant" not in doc:
            raise PlantFileError(f"{where}: document needs 'ring' and 'plant' sections")
        ring = doc["ring"]
        if not isinstance(ring, dict):
            raise PlantFileError(f"{where}: ring must be an object")
        kind = ring.get("kind")
        try:
            if kind == "quadratic":
                if type(ring["m"]) is not int:  # rejects floats, bools and strings
                    raise PlantFileError(f"{where}: ring.m must be a JSON integer, got {ring['m']!r}")
                desc = quadratic(ring["m"])
            elif kind == "delay":
                desc = delay()
            else:
                raise PlantFileError(f"{where}: ring.kind must be 'quadratic' or 'delay'")
        except (KeyError, TypeError, ValueError) as exc:
            raise PlantFileError(f"{where}: bad ring descriptor ({exc})")
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
        config = dict(config)
        for key in ("r1", "r2"):
            if key in config:
                value = _parse_elem_value(desc, config[key], f"{where}: config.{key}")
                try:
                    config[key] = RingElement(desc, value)
                except ValueError as exc:
                    raise PlantFileError(f"{where}: config.{key}: {exc}")
        return PlantFile(desc, plant, controller, config)

    def to_dict(self) -> dict:
        out = {"ring": {"kind": self.descriptor.kind}}
        if self.descriptor.is_quadratic:
            out["ring"]["m"] = self.descriptor.m
        out["plant"] = {
            "num": _elem_to_json(self.descriptor, self.plant.num),
            "den": _elem_to_json(self.descriptor, self.plant.den),
        }
        if self.controller is not None:
            out["controller"] = {
                "num": _elem_to_json(self.descriptor, self.controller.num),
                "den": _elem_to_json(self.descriptor, self.controller.den),
            }
        return out


# ---------------------------------------------------------------------------
# LaTeX rendering (documentation aid)
# ---------------------------------------------------------------------------

def _latex_frac(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def latex_value(desc: RingDescriptor, value) -> str:
    if desc.is_quadratic:
        if value.im == 0:
            return _latex_frac(value.re)
        im = "" if abs(value.im) == 1 else _latex_frac(abs(value.im))
        tail = f"{im}\\sqrt{{{value.m}}}i"
        if value.re == 0:
            return tail if value.im > 0 else f"-{tail}"
        return f"{_latex_frac(value.re)} {'+' if value.im > 0 else '-'} {tail}"
    if value.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(value.coeffs):
        if c == 0:
            continue
        mag = _latex_frac(abs(c))
        if k > 0:
            mag = ("" if abs(c) == 1 else mag) + ("x" if k == 1 else f"x^{{{k}}}")
        parts.append(("-" if c < 0 else ("+" if parts else "")) + mag)
    return " ".join(parts)


def latex_tf(tf: TransferFunction) -> str:
    num, den = tf.display_pair()
    return f"\\frac{{{latex_value(tf.descriptor, num)}}}{{{latex_value(tf.descriptor, den)}}}"


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def _tf_json(tf: TransferFunction) -> dict:
    return {
        "display": str(tf),
        "num": _elem_to_json(tf.descriptor, tf.num),
        "den": _elem_to_json(tf.descriptor, tf.den),
    }


def _elem_str(e: Optional[RingElement]) -> Optional[str]:
    return None if e is None else str(e)


def _poly_str(p: Poly) -> str:
    from .rings import format_poly

    return format_poly(p)


def _trace_json(trace) -> dict:
    if isinstance(trace, QuadraticTrace):
        return {
            "kind": "quadratic_fast_path",
            "num_re": trace.num_re,
            "num_im": trace.num_im,
            "den": trace.den,
            "num_norm": trace.num_norm,
            "norm_den_gcd": trace.norm_den_gcd,
            "norm_cofactor": trace.norm_cofactor,
        }
    if isinstance(trace, DelayTrace):
        return {
            "kind": "delay_construction",
            "gcd": _poly_str(trace.gcd),
            "gcd_slope": str(trace.gcd_slope),
            "multiplier_constant": str(trace.multiplier_constant),
            "multiplier": _poly_str(trace.multiplier),
            "num_reduced": _poly_str(trace.num_reduced),
            "den_reduced": _poly_str(trace.den_reduced),
            "num_inflated": _poly_str(trace.num_inflated),
            "den_inflated": _poly_str(trace.den_inflated),
            "cof_num": _poly_str(trace.cof_num),
            "cof_den": _poly_str(trace.cof_den),
            "shift": _poly_str(trace.shift),
            "cof_num0": str(trace.cof_num0),
            "cof_num1": str(trace.cof_num1),
            "cof_den0": str(trace.cof_den0),
            "cof_den1": str(trace.cof_den1),
        }
    if isinstance(trace, ReciprocalTrace):
        return {"kind": "reciprocal", "q": str(trace.inverse)}
    if isinstance(trace, IdealTrace):
        return {"kind": "factor_ideals", "lambda1": _ideal_json(trace.lam1), "lambda2": _ideal_json(trace.lam2)}
    return {"kind": "unknown"}


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
    """Accumulates ordered key/value output plus an exit status."""

    def __init__(self, command: str, argv: list[str]):
        self.data: dict = {"command": command, "argv": argv}
        self.lines: list[str] = []
        self.status = EXIT_OK

    def put(self, key: str, value, line: Optional[str] = None) -> None:
        self.data[key] = value
        if line is not None:
            self.lines.append(line)

    def say(self, line: str) -> None:
        self.lines.append(line)

    def finish(self, as_json: bool) -> str:
        self.data["status"] = {
            EXIT_OK: "verified",
            EXIT_UNKNOWN: "unknown",
            EXIT_SYNTHESIS: "synthesis_failed",
        }.get(self.status, "error")
        if as_json:
            return json.dumps(self.data, indent=2)
        return "\n".join(self.lines + [f"status: {self.data['status']}"])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _count(args, name: str, config: dict, default: int) -> int:
    """A positive integer from --<name>, else from config.<name>, else the default."""
    value, where = getattr(args, name, None), "--" + name.replace("_", "-")
    if value is None:
        value, where = config.get(name, default), f"config.{name}"
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise PlantFileError(f"{where} must be a positive integer, got {value!r}")
    return value


def _config_from(pf: PlantFile, args) -> SynthesisConfig:
    cfg = pf.config
    r = {key: cfg.get(key) for key in ("r1", "r2")}
    for key in r:
        text = getattr(args, key, None)
        if text is not None:
            try:
                r[key] = parse_ring_element(pf.descriptor, text)
            except (ValueError, ZeroDivisionError) as exc:
                raise PlantFileError(f"--{key}: {exc}")
    return SynthesisConfig(omega_max=_count(args, "omega_max", cfg, SynthesisConfig.omega_max), **r)


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
        rep.status = EXIT_UNKNOWN
        return
    if in_ring is not None:
        rep.put("stabilizable", True, "stabilizable: True (plant in A; zero controller works)")
        return
    if desc.is_delay:
        n, d = causal_representation(p)
        g = poly_gcd(n.value, d.value)
        g = g.scale(1 / g(0))
        rep.put(
            "representation",
            {"n": str(n), "d": str(d), "gcd": _poly_str(g)},
            f"A-representation: n = {n}, d = {d}, gcd = {_poly_str(g)}",
        )
    _config_from(pf, args)  # rejects a bad --omega-max or config section
    witness = next(witness_candidates(p), None)
    if witness is None:  # only a quadratic plant with a non-invertible G gets no candidate
        ideal = cp.factor_ideals(p).ideal
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
        rep.status = EXIT_SYNTHESIS
        return
    rep.put("controller", _tf_json(result.controller), f"controller: {result.controller}")
    if args.latex:
        rep.put("controller_latex", latex_tf(result.controller), f"  latex: {latex_tf(result.controller)}")
    rep.put("omega", result.omega, f"omega: {result.omega}")
    rep.put("trivial", result.trivial)
    if not result.trivial:
        rep.put("a1", _elem_str(result.a1), f"a1: {result.a1}")
        rep.put("a2", _elem_str(result.a2), f"a2: {result.a2}")
        rep.put("r1", _elem_str(result.r1))
        rep.put("r2", _elem_str(result.r2))
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
    one = TransferFunction.one(pf.descriptor)
    if (one + p * c).is_zero():
        rep.put("well_posed", False, "loop is ill-posed: 1 + p*c = 0")
        rep.put("stable", False)
        rep.status = EXIT_UNKNOWN
        return
    h = feedback_matrix(p, c)
    entries = {}
    for name, tf in (("h11", h.h11), ("h12", h.h12), ("h21", h.h21), ("h22", h.h22)):
        member = contains(tf) is not None
        entries[name] = {"value": str(tf), "in_ring": member}
        rep.say(f"{name} = {tf}   in A: {member}")
        if args.latex:
            rep.say(f"  latex: {latex_tf(tf)}")
    rep.put("H", entries)
    rep.put("well_posed", True)
    rep.put("stable", h.stable, f"stable: {h.stable}")
    if not h.stable:
        rep.status = EXIT_UNKNOWN


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
        rep.status = EXIT_UNKNOWN


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
    cfg = SynthesisConfig(omega_max=_count(args, "omega_max", {}, SynthesisConfig.omega_max))
    try:
        result = synthesize(plant, cfg)
    except SynthesisError as exc:
        rep.put("error", str(exc), f"synthesis failed: {exc}")
        rep.status = EXIT_SYNTHESIS
        return
    rep.put("controller", _tf_json(result.controller), f"controller: {result.controller}")
    stable = result.closed_loop.stable
    rep.put("stable", stable, f"closed loop stable: {stable}")
    if report.cond_ii == cp.Verdict.UNKNOWN:
        rep.status = EXIT_UNKNOWN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringstab",
        description="Exact stabilizability analysis and controller synthesis over "
        "Z[sqrt(m)i] and the no-unit-delay ring Q[x^2,x^3].",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(sp, plantfile=True):
        if plantfile:
            sp.add_argument("plantfile", help="JSON plant description")
        sp.add_argument("--json", action="store_true", help="machine-readable report")
        sp.add_argument("--latex", action="store_true", help="include LaTeX renderings")

    sp = sub.add_parser("analyze", help="causality, canonical form, factor witnesses")
    common(sp)
    sp.add_argument("--omega-max", type=int, dest="omega_max")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("synthesize", help="construct and verify a stabilizing controller")
    common(sp)
    sp.add_argument("--omega-max", type=int, dest="omega_max")
    sp.add_argument("--r1", help="free parameter r1 (ring element literal)")
    sp.add_argument("--r2", help="free parameter r2 (ring element literal)")
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("verify", help="check closed-loop stability of a plant/controller pair")
    common(sp)
    sp.add_argument("controller", nargs="?", help="controller literal, e.g. '(-1+1*i5)/(2)'")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("coprime-factorization", help="decide existence of a coprime factorization")
    common(sp)
    sp.set_defaults(func=cmd_coprime_factorization)

    sp = sub.add_parser("family", help="generate and fully check a Z[sqrt(xy-1)i] instance")
    common(sp, plantfile=False)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--omega-max", type=int, dest="omega_max")
    sp.set_defaults(func=cmd_family)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    rep = Report(args.cmd, argv)
    try:
        args.func(args, rep)
    except PlantFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        print(rep.finish(as_json=args.json))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``); keep the exit-time flush quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return rep.status


if __name__ == "__main__":
    sys.exit(main())
