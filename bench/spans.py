"""Per-layer tracing of ringstab from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that opens a
span named ``layer.op``.  Modules import names directly (``from .rings import
contains``), so a function is replaced in every ringstab module that binds it,
not only where it is defined; methods are replaced on their class.
``Tracer.uninstall`` restores every original binding; the tracer can be
installed again, keeping its statistics.

Spans nest through a stack.  On exit a span adds its duration to its op's
total time and to its parent's child time, so an op's self time is its total
time minus the time covered by the spans it caused.  Results are aggregated in
memory per op and per (parent op, op) edge.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One traced callable: ``qualname`` in module ``ringstab.<layer>``, recorded
    as span ``layer.op``.

    ``outcome`` maps a return value to True/False for ratio metrics (for
    example, "the construction returned a witness").
    """

    layer: str
    op: str
    qualname: str
    outcome: Optional[Callable[[object], bool]] = None

    @property
    def module(self) -> str:
        return f"ringstab.{self.layer}"

    @property
    def span(self) -> str:
        return f"{self.layer}.{self.op}"


def _not_none(result) -> bool:
    return result is not None


def _decisive(verdict) -> bool:
    return verdict.kind.value != "unknown"


def _targets() -> list[Target]:
    """Every public function and method that the benchmarked CLI commands run.

    Not traced, so their self time is charged to the traced caller:
    constructors (``__init__``, ``__post_init__`` and the static ``of``,
    ``from_list``, ``zero``, ``one`` helpers), dataclass-generated methods,
    one-line accessors and predicates (``Poly.coeff``, ``Poly.leading``,
    ``is_zero``, ``is_integral``, ``degree``), ``__str__``/``__repr__``, and
    functions these commands never call (LaTeX output, the family generator,
    ``solve_condition_i``, ``extract_controller``).  A wrapper costs more than
    the body of such a one-liner.
    """
    t = Target
    return [
        # exact: Q[x] and Q(sqrt(m)i) arithmetic
        t("exact", "poly_add", "Poly.__add__"),
        t("exact", "poly_sub", "Poly.__sub__"),
        t("exact", "poly_mul", "Poly.__mul__"),
        t("exact", "poly_scale", "Poly.scale"),
        t("exact", "poly_eval", "Poly.__call__"),
        t("exact", "poly_pow", "Poly.__pow__"),
        t("exact", "poly_neg", "Poly.__neg__"),
        t("exact", "poly_monic", "Poly.monic"),
        t("exact", "poly_divmod", "poly_divmod"),
        t("exact", "poly_divides", "poly_divides"),
        t("exact", "poly_gcd", "poly_gcd"),
        t("exact", "ext_gcd_poly", "ext_gcd_poly"),
        t("exact", "ext_gcd_int", "ext_gcd_int"),
        t("exact", "solve_linear", "solve_linear"),
        t("exact", "quad_add", "QuadElem.__add__"),
        t("exact", "quad_sub", "QuadElem.__sub__"),
        t("exact", "quad_mul", "QuadElem.__mul__"),
        t("exact", "quad_neg", "QuadElem.__neg__"),
        t("exact", "quad_div", "QuadElem.__truediv__"),
        t("exact", "quad_scale", "QuadElem.scale"),
        t("exact", "quad_conj", "QuadElem.conj"),
        t("exact", "quad_norm", "QuadElem.norm"),
        t("exact", "quad_norm", "quad_norm"),
        t("exact", "quad_inverse", "QuadElem.inverse"),
        # rings: ring elements, transfer functions, membership
        t("rings", "elem_add", "RingElement.__add__"),
        t("rings", "elem_sub", "RingElement.__sub__"),
        t("rings", "elem_neg", "RingElement.__neg__"),
        t("rings", "elem_mul", "RingElement.__mul__"),
        t("rings", "pow", "RingElement.__pow__"),
        t("rings", "pow", "TransferFunction.__pow__"),
        t("rings", "tf_make", "TransferFunction.make"),
        t("rings", "tf_add", "TransferFunction.__add__"),
        t("rings", "tf_sub", "TransferFunction.__sub__"),
        t("rings", "tf_neg", "TransferFunction.__neg__"),
        t("rings", "tf_mul", "TransferFunction.__mul__"),
        t("rings", "tf_div", "TransferFunction.__truediv__"),
        t("rings", "tf_inverse", "TransferFunction.inverse"),
        t("rings", "display_pair", "TransferFunction.display_pair"),
        t("rings", "contains", "contains"),
        t("rings", "divides", "divides"),
        t("rings", "is_unit", "is_unit"),
        t("rings", "in_causality_set", "in_causality_set"),
        t("rings", "is_causal", "is_causal"),
        t("rings", "causal_representation", "causal_representation"),
        t("rings", "format_poly", "format_poly"),
        t("rings", "format_quad", "format_quad"),
        t("rings", "format_element_value", "format_element_value"),
        t("rings", "parse_quad", "parse_quad"),
        t("rings", "parse_poly", "parse_poly"),
        t("rings", "parse_element_value", "parse_element_value"),
        t("rings", "parse_ring_element", "parse_ring_element"),
        t("rings", "parse_transfer_function", "parse_transfer_function"),
        # elemfactor: comaximality witnesses
        t("elemfactor", "construct", "construct_witnesses_quadratic", _not_none),
        t("elemfactor", "construct", "construct_witnesses_delay", _not_none),
        t("elemfactor", "search", "search_witnesses_quadratic", _not_none),
        t("elemfactor", "search", "search_witnesses_delay", _not_none),
        t("elemfactor", "lambda_member", "lambda_member"),
        # synthesis: omega scan; condition (i) stays in synthesis self time
        t("synthesis", "synthesize", "synthesize"),
        t("synthesis", "cond_ii", "check_condition_ii", _not_none),
        t("synthesis", "pair_for_plant", "CoprimePairLocal.for_plant"),
        # coprime: ideals, Bezout, CF existence
        t("coprime", "cf_exists", "cf_exists", _decisive),
        t("coprime", "are_coprime", "are_coprime"),
        t("coprime", "ideal_from_gens", "ideal_from_gens"),
        t("coprime", "ideal_is_principal", "ideal_is_principal"),
        t("coprime", "ideal_mul", "QuadIdeal.mul"),
        t("coprime", "ideal_member", "QuadIdeal.member"),
        t("coprime", "principal_ideal", "principal_ideal"),
        t("coprime", "bezout_combination", "bezout_combination"),
        # closedloop: H(p, c)
        t("closedloop", "feedback_matrix", "feedback_matrix"),
        t("closedloop", "is_stable", "is_stable"),
        # cli: argument parsing, plant files, report rendering
        t("cli", "main", "main"),
        t("cli", "plantfile_load", "PlantFile.load"),
    ]


TARGETS = _targets()
LAYERS = ("exact", "rings", "elemfactor", "synthesis", "coprime", "closedloop", "cli")


@dataclass
class OpStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    hits: int = 0


@dataclass
class Tracer:
    """Span recorder; one per traced run."""

    clock: Callable[[], float] = time.perf_counter
    ops: dict[str, OpStats] = field(init=False, default_factory=dict)
    edges: dict[tuple[str, str], int] = field(init=False, default_factory=dict)
    _stack: list = field(init=False, default_factory=list)
    _patches: list = field(init=False, default_factory=list)
    _installed: bool = field(init=False, default=False)

    def wrap(self, span: str, fn: Callable, outcome: Optional[Callable] = None) -> Callable:
        stats = self.ops.setdefault(span, OpStats())
        stack = self._stack
        edges = self.edges
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "<root>"
            frame = [span, 0.0]  # name, child time
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                edges[(parent, span)] = edges.get((parent, span), 0) + 1
            if outcome is not None and outcome(result):
                stats.hits += 1
            return result

        return traced

    def _plan(self) -> list[tuple]:
        """(owner, name, original, wrapper) for every binding of every target."""
        plan = []
        for target in TARGETS:
            module = sys.modules[target.module]
            if "." in target.qualname:
                cls_name, attr = target.qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.wrap(target.span, raw.__func__, target.outcome))
                else:
                    wrapped = self.wrap(target.span, raw, target.outcome)
                plan.append((cls, attr, raw, wrapped))
                continue
            original = getattr(module, target.qualname)
            wrapped = self.wrap(target.span, original, target.outcome)
            for site in import_sites(original):
                plan += [(site, name, original, wrapped) for name, v in vars(site).items() if v is original]
        return plan

    def install(self) -> None:
        """Replace every binding with its wrapper; the plan is built on the first call."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._patches:
            self._patches = self._plan()
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)
        self._installed = True

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        self._installed = False

    def self_ms(self, layer: str) -> float:
        return 1000 * sum(s.self_s for name, s in self.ops.items() if name.split(".")[0] == layer)

    def stats(self, span: str) -> OpStats:
        return self.ops.get(span, OpStats())


def import_sites(obj) -> list:
    """Every loaded ringstab module that binds ``obj`` under some name."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if (name == "ringstab" or name.startswith("ringstab.")) and mod is not None
        and any(v is obj for v in vars(mod).values())
    ]
