"""Job descriptions: the JSON surface of the CLI.

A job fixes the prime, the variables, the ideal I (which must be
homogeneous and inside the square of the maximal ideal), the module (a
cyclic quotient or an explicit presentation), caps, and the regime.
Parsing is strict: every polynomial uses explicit * and ^, and failures
carry the offending field.

parse_job only validates: syntax, types, and I inside n^2.  The ring data
(Burch ideal, Burch data, minimal generators) is built once, by
JobSpec.context(), when the job runs; the module is parsed against it by
JobSpec.presentation().
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .burch import check_in_square
from .errors import InputError
from .groebner import Ideal
from .matrices import FreeModuleElement
from .pipeline import Caps, RingContext
from .resolve import ModulePresentation
from .ring import ParseError, PolyRing, is_prime


COMMANDS = ("burch", "resolve", "bar", "cycles", "verify-general", "verify-golod", "corpus")

# the JSON name of each Caps field, in the order a job's caps are echoed
CAPS_FIELDS = {"homDegree": "hom_degree", "arity": "arity", "degree": "degree",
               "bruteForceDim": "brute_force_dim", "generalQs": "general_qs"}


@dataclass
class JobSpec:
    prime: int
    variables: tuple
    ideal_strings: list
    module: dict                 # {"cyclic": [...]} | {"presentation": {...}}
    caps: Caps = field(default_factory=Caps)
    regime: str = "auto"
    command: str | None = None
    name: str | None = None

    def to_dict(self) -> dict:
        caps = {key: getattr(self.caps, name) for key, name in CAPS_FIELDS.items()}
        caps["generalQs"] = list(caps["generalQs"])
        out = {
            "p": self.prime,
            "vars": list(self.variables),
            "ideal": list(self.ideal_strings),
            "module": self.module,
            "caps": caps,
            "regime": self.regime,
        }
        if self.command:
            out["command"] = self.command
        if self.name:
            out["name"] = self.name
        return out

    # -- realization -------------------------------------------------------

    def ring(self) -> PolyRing:
        try:
            return PolyRing(self.prime, tuple(self.variables))
        except ValueError as e:   # e.g. a --prime override that is not prime
            raise InputError(str(e)) from None

    def ideal(self) -> Ideal:
        """The ideal I, parsed and checked to lie inside n^2; no ring data built."""
        ring = self.ring()
        ideal = Ideal(ring, [_parse(ring, s, "ideal generator") for s in self.ideal_strings])
        check_in_square(ideal)
        return ideal

    def context(self) -> RingContext:
        ideal = self.ideal()
        return RingContext.build(ideal.ring, ideal)

    def presentation(self, ctx: RingContext) -> ModulePresentation:
        """The module, which must be nonzero and minimally presented.

        A relation with a unit entry is never in m*N (N the relation
        module), so resolve_over_R keeps it and its resolution would not be
        minimal; the presentation is minimal iff no entry has a nonzero
        constant term.
        """
        pres = self._module(ctx)
        if pres.is_zero():
            raise InputError("the module is zero")
        for v in pres.relations:
            if v.is_reduced_nonzero_mod_max_ideal():
                raise InputError(f"relation {v} has an entry with a nonzero constant term; "
                                 "presentations must be minimal")
        return pres

    def _module(self, ctx: RingContext) -> ModulePresentation:
        ring = ctx.ring
        if "cyclic" in self.module:
            gens = self.module["cyclic"]
            if not _strings(gens):
                raise InputError("module.cyclic must be a list of polynomial strings")
            return ModulePresentation.cyclic(
                ctx.ideal, [_parse(ring, s, "module generator") for s in gens])
        spec = self.module.get("presentation")
        if not isinstance(spec, dict):
            raise InputError("module.presentation must be a JSON object")
        degrees = spec.get("generatorDegrees")
        if not isinstance(degrees, list) or not all(_is_int(d) for d in degrees):
            raise InputError("presentation.generatorDegrees must be a list of integers")
        columns = spec.get("relations", [])
        if not isinstance(columns, list) or not all(_strings(col) for col in columns):
            raise InputError("presentation.relations must be a list of lists of polynomial strings")
        rels = []
        for col in columns:
            if len(col) != len(degrees):
                raise InputError("each relation column needs one entry per generator")
            coords = {}
            for i, s in enumerate(col):
                f = _parse(ring, s, "relation entry") if s not in ("0", "") else None
                if f:
                    coords[i] = f
            rels.append(FreeModuleElement(ring, coords))
        return ModulePresentation(ring, ctx.ideal, degrees, rels)


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


def _parse(ring: PolyRing, s: str, what: str):
    try:
        return ring.parse(s)
    except ParseError as e:
        raise InputError(f"{what} {s!r}: {e}") from None


def check_hom_degree(n: int) -> int:
    """The homological cap of a job or of --cap, checked to lie in 2..12."""
    if not 2 <= n <= 12:
        raise InputError(f"caps.homDegree must be between 2 and 12, got {n}")
    return n


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_caps(caps_doc) -> Caps:
    """Validate the optional caps object of a job; a key left out keeps the
    default that Caps declares."""
    if not isinstance(caps_doc, dict):
        raise InputError("caps must be a JSON object")
    for key in caps_doc:
        if key not in CAPS_FIELDS:
            raise InputError(f"caps has an unknown key {key!r}; "
                             f"the keys are {', '.join(CAPS_FIELDS)}")
    caps = Caps()
    for key, name in CAPS_FIELDS.items():
        if key not in caps_doc:
            continue
        v = caps_doc[key]
        if key == "generalQs":
            # verify-general builds its bar to q + 1, within check_hom_degree's 2..12
            if (not isinstance(v, list) or not v
                    or not all(_is_int(q) and 4 <= q <= 11 for q in v)):
                raise InputError(f"caps.generalQs must be a nonempty list of integers "
                                 f"between 4 and 11, got {v!r}")
            v = tuple(v)
        elif not _is_int(v):
            raise InputError(f"caps.{key} must be an integer, got {v!r}")
        setattr(caps, name, v)
    check_hom_degree(caps.hom_degree)
    if caps.arity < 2:
        # the bar differential needs m_2 and mu_2 in every regime
        raise InputError(f"caps.arity must be at least 2, got {caps.arity}")
    return caps


def parse_job(doc) -> JobSpec:
    """Validate a JSON job document into a JobSpec."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise InputError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InputError("job document must be a JSON object")
    for key in ("p", "vars", "ideal", "module"):
        if key not in doc:
            raise InputError(f"missing required field {key!r}")
    p = doc["p"]
    if not isinstance(p, int) or not is_prime(p):
        raise InputError(f"p must be a prime integer, got {p!r}")
    variables = doc["vars"]
    if (not isinstance(variables, list) or not variables
            or not all(isinstance(v, str) and v.isidentifier() for v in variables)):
        raise InputError("vars must be a nonempty list of identifiers")
    if len(set(variables)) != len(variables):
        raise InputError("duplicate variable names")
    ideal = doc["ideal"]
    if not _strings(ideal):
        raise InputError("ideal must be a list of polynomial strings")
    module = doc["module"]
    if not isinstance(module, dict) or len({"cyclic", "presentation"} & set(module)) != 1:
        raise InputError("module must be {'cyclic': [...]} or {'presentation': {...}}, "
                         "exactly one of them")
    caps = _parse_caps(doc.get("caps", {}))
    regime = doc.get("regime", "auto")
    if regime not in ("dg", "ainf", "auto"):
        raise InputError("regime must be dg, ainf, or auto")
    command = doc.get("command")
    if command is not None and command not in COMMANDS:
        raise InputError(f"unknown command {command!r}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f"name must be a string, got {name!r}")
    spec = JobSpec(
        prime=p,
        variables=tuple(variables),
        ideal_strings=list(ideal),
        module=module,
        caps=caps,
        regime=regime,
        command=command,
        name=name,
    )
    spec.ideal()   # fail fast on unparseable input and on I not inside n^2
    return spec


def load_job(path) -> JobSpec:
    """The job in a file; a file that cannot be read as UTF-8 text is an
    input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read job {path}: {e.strerror or e}") from None
    except UnicodeDecodeError:
        raise InputError(f"job {path} is not UTF-8 text") from None
    return parse_job(text)
