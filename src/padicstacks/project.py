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
from contextlib import contextmanager

from .definable import parse_formula
from .polyscheme import AffineScheme, parse_poly
from .rings import make_ring, record
from .stacks import FiniteGroupData, GroupAction, QuotientStack, SpecialGroup


# the [defaults] keys and the least value each accepts
DEFAULT_MINIMUMS = {"bound": 1, "slack": 0, "max_level": 0, "terms": 1}


class ProjectError(ValueError):
    """Unresolvable reference or malformed section in a project file."""


@record
class FormulaEntry:
    name: str
    target: str
    dim: int
    text: str
    formula: object
    bad_primes: tuple = ()


@record
class ProjectFile:
    rings: dict = {}
    schemes: dict = {}
    groups: dict = {}
    actions: dict = {}
    stacks: dict = {}
    formulas: dict = {}
    defaults: dict = {}

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


def _known(raw, keys):
    """Refuse a key that the section's loader does not read, such as a
    misspelled one, which would otherwise be dropped without a word."""
    for key in raw:
        if key not in keys:
            raise ProjectError(f"unknown key {key!r}")


def _int(raw, key, default=None):
    if key not in raw:
        if default is None:
            raise ProjectError(f"is missing {key!r}")
        return default
    try:
        return int(raw[key])
    except ValueError:
        raise ProjectError(f"{key} must be an integer") from None


# Each loader builds one `[kind name]` section from its raw keys and the
# sections loaded before it; load_project names the section in its errors.


def _load_ring(name, raw, project):
    _known(raw, ("p", "e", "n", "r", "eisenstein", "residue_modulus"))
    p = _int(raw, "p")
    e = _int(raw, "e", 1)
    n = _int(raw, "n", 0)
    r = _int(raw, "r", 1)
    eisenstein = None
    if "eisenstein" in raw:
        eisenstein = tuple(int(c) for c in _split_list(raw["eisenstein"]))
    modulus = None
    if "residue_modulus" in raw:
        modulus = tuple(int(c) for c in _split_list(raw["residue_modulus"]))
    return make_ring(p, e, eisenstein, n, r, modulus)


def _load_scheme(name, raw, project):
    _known(raw, ("vars", "gens", "dim"))
    if "vars" not in raw:
        raise ProjectError("is missing 'vars'")
    variables = tuple(_split_list(raw["vars"]))
    gen_texts = []
    for chunk in raw.get("gens", "").replace("\n", ";").split(";"):
        chunk = chunk.strip()
        if chunk:
            gen_texts.append(chunk)
    dim = _int(raw, "dim", len(variables) if not gen_texts else None)
    return AffineScheme.from_text(name, variables, gen_texts, dim)


def _load_group(name, raw, project):
    if "special" in raw:
        _known(raw, ("special",))
        tag = raw["special"].strip()
        if tag in ("Ga", "Gm"):
            return SpecialGroup(tag)
        if tag.startswith("GL") and tag[2:].isdigit():
            return SpecialGroup("GL", int(tag[2:]))
        raise ProjectError(f"unknown special tag {tag!r}")
    if "elements" not in raw or "table" not in raw:
        raise ProjectError("needs 'elements' and 'table'")
    _known(raw, ("elements", "table"))
    labels = _split_list(raw["elements"])
    rows = [line.split() for line in raw["table"].splitlines() if line.strip()]
    return FiniteGroupData(labels, rows)


def _load_action(name, raw, project):
    for key in ("group", "scheme"):
        if key not in raw:
            raise ProjectError(f"is missing {key!r}")
    gname, sname = raw["group"].strip(), raw["scheme"].strip()
    if gname not in project.groups:
        raise ProjectError(f"references unknown group {gname!r}")
    if sname not in project.schemes:
        raise ProjectError(f"references unknown scheme {sname!r}")
    group, scheme = project.groups[gname], project.schemes[sname]
    if isinstance(group, SpecialGroup):
        _known(raw, ("group", "scheme", "polys"))
        if "polys" not in raw:
            return GroupAction(group, scheme)
        names = scheme.variables + group.coordinate_names()
        return GroupAction(group, scheme, tuple(
            parse_poly(tx, names) for tx in _split_list(raw["polys"])
        ))
    # an omitted element is refused, except the identity; with no element
    # given the action is trivial
    _known(raw, ("group", "scheme") + group.labels)
    polys = {
        label: tuple(parse_poly(tx, scheme.variables) for tx in _split_list(raw[label]))
        for label in group.labels
        if label in raw
    }
    return GroupAction(group, scheme, polys or None)


def _load_stack(name, raw, project):
    if "action" in raw:
        _known(raw, ("action",))
        aname = raw["action"].strip()
        if aname not in project.actions:
            raise ProjectError(f"references unknown action {aname!r}")
        return QuotientStack(name, project.actions[aname])
    if "group" in raw and "scheme" in raw:
        return QuotientStack(name, _load_action(name, raw, project))
    raise ProjectError("needs 'action' or a 'group'/'scheme' pair")


def _load_formula(name, raw, project):
    _known(raw, ("target", "text", "dim", "bad_primes"))
    for key in ("target", "text"):
        if key not in raw:
            raise ProjectError(f"is missing {key!r}")
    tname = raw["target"].strip()
    if tname in project.stacks:
        raise ProjectError(
            f"target {tname!r} is a stack; formula measures need a scheme target"
        )
    if tname not in project.schemes:
        raise ProjectError(f"references unknown target {tname!r}")
    target = project.schemes[tname]
    dim = _int(raw, "dim", target.dim)
    bad = tuple(int(b) for b in _split_list(raw.get("bad_primes", "")))
    formula = parse_formula(raw["text"], target.variables)
    return FormulaEntry(name, tname, dim, raw["text"], formula, bad)


# section kinds in load order: each may refer only to kinds before it
_LOADERS = {"ring": _load_ring, "scheme": _load_scheme, "group": _load_group,
            "action": _load_action, "stack": _load_stack, "formula": _load_formula}


@contextmanager
def _section(label):
    """Re-raise any ValueError as a ProjectError that names the section."""
    try:
        yield
    except ValueError as exc:
        raise ProjectError(f"[{label}] {exc}") from exc


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

    sections = {kind: {} for kind in _LOADERS}
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
    for kind, load in _LOADERS.items():
        table = getattr(project, f"{kind}s")
        for name, raw in sections[kind].items():
            with _section(f"{kind} {name}"):
                table[name] = load(name, raw, project)
    with _section("defaults"):
        _known(defaults, DEFAULT_MINIMUMS)
        for key, least in DEFAULT_MINIMUMS.items():
            if key in defaults:
                project.defaults[key] = _int(defaults, key)
                if project.defaults[key] < least:
                    raise ProjectError(f"{key} must be at least {least}")
    return project
