"""Declarative project files: named rings, schemes, groups, actions,
stacks and formulas in one INI-style text file.

Sections are `[kind name]` with kind in {ring, scheme, group, action,
stack, formula} plus a single optional `[defaults]`.  Every reference is
resolved at load time; loading either returns a fully validated project
or raises ProjectError.

Example::

    [defaults]
    max_level = 6

    [ring p3n2]
    p = 3
    n = 2

    [scheme conic]
    vars = x, y
    gens = x^2 + y^2 - 1
    dim = 1

    [group Z2]
    elements = e, s
    table =
        e s
        s e

    [action neg]
    group = Z2
    scheme = conic
    e = x, y
    s = -x, -y

    [stack quot]
    action = neg

    [formula ordx]
    target = conic
    dim = 1
    text = ord(x) >= 1
    bad_primes = 2
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .definable import FormulaSyntaxError, parse_formula
from .polyscheme import AffineScheme, MultiPoly, PolyParseError, parse_poly
from .rings import LocalRingSpec, RingConstructionError, make_ring
from .stacks import (
    FiniteGroupData,
    GroupAction,
    GroupDataError,
    QuotientStack,
    SpecialGroup,
)


# the [defaults] keys and the least value each accepts
DEFAULT_MINIMUMS = {"bound": 1, "slack": 0, "max_level": 0, "terms": 1}


class ProjectError(ValueError):
    """Unresolvable reference or malformed section in a project file."""


@dataclass
class FormulaEntry:
    name: str
    target: str
    dim: int
    text: str
    formula: object
    bad_primes: tuple = ()


@dataclass
class ProjectFile:
    rings: dict = field(default_factory=dict)
    schemes: dict = field(default_factory=dict)
    groups: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)
    stacks: dict = field(default_factory=dict)
    formulas: dict = field(default_factory=dict)
    defaults: dict = field(default_factory=dict)

    def ring(self, name):
        return self._get(self.rings, name, "ring")

    def scheme(self, name):
        return self._get(self.schemes, name, "scheme")

    def stack(self, name):
        return self._get(self.stacks, name, "stack")

    def formula(self, name):
        return self._get(self.formulas, name, "formula")

    def target(self, name):
        """A scheme or a stack, whichever the name resolves to."""
        if name in self.schemes:
            return self.schemes[name]
        if name in self.stacks:
            return self.stacks[name]
        raise ProjectError(f"no scheme or stack named {name!r}")

    @staticmethod
    def _get(table, name, kind):
        if name not in table:
            raise ProjectError(f"no {kind} named {name!r}")
        return table[name]


def _split_list(text, sep=","):
    return [part.strip() for part in text.split(sep) if part.strip()]


def _int(section, key, raw, default=None):
    if key not in raw:
        if default is None:
            raise ProjectError(f"[{section}] is missing {key!r}")
        return default
    try:
        return int(raw[key])
    except ValueError:
        raise ProjectError(f"[{section}] {key} must be an integer") from None


def _load_ring(name, raw):
    p = _int(f"ring {name}", "p", raw)
    e = _int(f"ring {name}", "e", raw, 1)
    n = _int(f"ring {name}", "n", raw, 0)
    r = _int(f"ring {name}", "r", raw, 1)
    eisenstein = None
    if "eisenstein" in raw:
        eisenstein = tuple(int(c) for c in _split_list(raw["eisenstein"]))
    modulus = None
    if "residue_modulus" in raw:
        modulus = tuple(int(c) for c in _split_list(raw["residue_modulus"]))
    try:
        return make_ring(p, e, eisenstein, n, r, modulus)
    except RingConstructionError as exc:
        raise ProjectError(f"[ring {name}] {exc}") from exc


def _load_scheme(name, raw):
    if "vars" not in raw:
        raise ProjectError(f"[scheme {name}] is missing 'vars'")
    variables = tuple(_split_list(raw["vars"]))
    gen_texts = []
    for chunk in raw.get("gens", "").replace("\n", ";").split(";"):
        chunk = chunk.strip()
        if chunk:
            gen_texts.append(chunk)
    dim = _int(f"scheme {name}", "dim", raw, len(variables) if not gen_texts else None)
    try:
        return AffineScheme.from_text(name, variables, gen_texts, dim)
    except (PolyParseError, ValueError) as exc:
        raise ProjectError(f"[scheme {name}] {exc}") from exc


def _load_group(name, raw):
    if "special" in raw:
        tag = raw["special"].strip()
        if tag in ("Ga", "Gm"):
            return SpecialGroup(tag)
        if tag.startswith("GL") and tag[2:].isdigit():
            return SpecialGroup("GL", int(tag[2:]))
        raise ProjectError(f"[group {name}] unknown special tag {tag!r}")
    if "elements" not in raw or "table" not in raw:
        raise ProjectError(f"[group {name}] needs 'elements' and 'table'")
    labels = _split_list(raw["elements"])
    rows = [line.split() for line in raw["table"].splitlines() if line.strip()]
    try:
        return FiniteGroupData(labels, rows)
    except GroupDataError as exc:
        raise ProjectError(f"[group {name}] {exc}") from exc


def _load_action(name, raw, groups, schemes):
    for key in ("group", "scheme"):
        if key not in raw:
            raise ProjectError(f"[action {name}] is missing {key!r}")
    gname, sname = raw["group"].strip(), raw["scheme"].strip()
    if gname not in groups:
        raise ProjectError(f"[action {name}] references unknown group {gname!r}")
    if sname not in schemes:
        raise ProjectError(f"[action {name}] references unknown scheme {sname!r}")
    group, scheme = groups[gname], schemes[sname]
    try:
        if isinstance(group, SpecialGroup):
            if "polys" in raw:
                names = scheme.variables + group.coordinate_names()
                polys = tuple(
                    parse_poly(tx, names) for tx in _split_list(raw["polys"])
                )
                if len(polys) != scheme.n_vars:
                    raise ProjectError(
                        f"[action {name}] needs one polynomial per scheme variable"
                    )
                return GroupAction(group, scheme, polys)
            return GroupAction(group, scheme)
        if not any(label in raw for label in group.labels):
            return GroupAction(group, scheme)  # trivial action
        polys = {}
        for label in group.labels:
            if label in raw:
                texts = _split_list(raw[label])
                if len(texts) != scheme.n_vars:
                    raise ProjectError(
                        f"[action {name}] substitution for {label!r} has wrong arity"
                    )
                polys[label] = tuple(
                    parse_poly(tx, scheme.variables) for tx in texts
                )
            elif label == group.identity:
                polys[label] = tuple(
                    MultiPoly.variable(scheme.variables, v) for v in scheme.variables
                )
            else:
                raise ProjectError(
                    f"[action {name}] no substitution for group element {label!r}"
                )
        return GroupAction(group, scheme, polys)
    except (PolyParseError, ValueError) as exc:
        if isinstance(exc, ProjectError):
            raise
        raise ProjectError(f"[action {name}] {exc}") from exc


def _load_stack(name, raw, groups, schemes, actions):
    if "action" in raw:
        aname = raw["action"].strip()
        if aname not in actions:
            raise ProjectError(f"[stack {name}] references unknown action {aname!r}")
        return QuotientStack(name, actions[aname])
    if "group" in raw and "scheme" in raw:
        action = _load_action(name, raw, groups, schemes)
        return QuotientStack(name, action)
    raise ProjectError(
        f"[stack {name}] needs 'action' or a 'group'/'scheme' pair"
    )


def _load_formula(name, raw, schemes, stacks):
    for key in ("target", "text"):
        if key not in raw:
            raise ProjectError(f"[formula {name}] is missing {key!r}")
    tname = raw["target"].strip()
    if tname in stacks:
        raise ProjectError(
            f"[formula {name}] target {tname!r} is a stack; "
            "formula measures need a scheme target"
        )
    if tname not in schemes:
        raise ProjectError(f"[formula {name}] references unknown target {tname!r}")
    target = schemes[tname]
    dim = _int(f"formula {name}", "dim", raw, target.dim)
    bad = tuple(int(b) for b in _split_list(raw.get("bad_primes", "")))
    try:
        formula = parse_formula(raw["text"], target.variables)
    except FormulaSyntaxError as exc:
        raise ProjectError(f"[formula {name}] {exc}") from exc
    return FormulaEntry(name, tname, dim, raw["text"], formula, bad)


def load_project(path):
    """Parse and validate a project file; raises ProjectError on any
    unresolved reference, bad arithmetic parameter or syntax error."""
    parser = configparser.ConfigParser(
        delimiters=("=",), interpolation=None, strict=True
    )
    parser.optionxform = str  # element labels and variable names keep case
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, configparser.Error) as exc:
        raise ProjectError(f"cannot read project file: {exc}") from exc

    sections = {"ring": {}, "scheme": {}, "group": {}, "action": {},
                "stack": {}, "formula": {}}
    defaults = {}
    for section in parser.sections():
        raw = dict(parser.items(section))
        if section == "defaults":
            defaults = raw
            continue
        parts = section.split(None, 1)
        if len(parts) != 2 or parts[0] not in sections:
            raise ProjectError(
                f"section [{section}] is not 'defaults' or '<kind> <name>' "
                f"with kind in {sorted(sections)}"
            )
        kind, name = parts
        if name in sections[kind]:
            raise ProjectError(f"duplicate {kind} {name!r}")
        sections[kind][name] = raw

    project = ProjectFile()
    for name, raw in sections["ring"].items():
        project.rings[name] = _load_ring(name, raw)
    for name, raw in sections["scheme"].items():
        project.schemes[name] = _load_scheme(name, raw)
    for name, raw in sections["group"].items():
        project.groups[name] = _load_group(name, raw)
    for name, raw in sections["action"].items():
        project.actions[name] = _load_action(
            name, raw, project.groups, project.schemes
        )
    for name, raw in sections["stack"].items():
        project.stacks[name] = _load_stack(
            name, raw, project.groups, project.schemes, project.actions
        )
    for name, raw in sections["formula"].items():
        project.formulas[name] = _load_formula(
            name, raw, project.schemes, project.stacks
        )
    for key, least in DEFAULT_MINIMUMS.items():
        if key in defaults:
            try:
                project.defaults[key] = int(defaults[key])
            except ValueError:
                raise ProjectError(f"[defaults] {key} must be an integer") from None
            if project.defaults[key] < least:
                raise ProjectError(f"[defaults] {key} must be at least {least}")
    return project
