"""Textual scenario files.

The format is line oriented.  A ``#`` starts a comment (full-line or
trailing), blank lines are ignored, and four section headers switch the
parsing mode:

  [faces]
      One face per line: space-separated edge symbols in boundary
      order, with a trailing apostrophe marking reversed traversal::

          a b a' b'

  [curves]
      Named cyclic edge words, one per line::

          S = u1 u2
          gamma = h1 h2' e2' e1

  [involutions]
      Named cell involutions as products of edge 2-cycles (fixed edges
      may be listed as 1-cycles)::

          c = (a1 b1) (a2 b2) (u1 u2')

      A primed second entry glues head-to-head instead of head-to-tail.

  [scenario]
      Key = value pairs selecting the actors::

          description = genus 2 example
          s = S
          involution = c
          q = beta1
          n = gamma
          twist = 1

      Only ``s`` is mandatory for building a scenario; the other keys
      are optional and ``twist`` defaults to 1.

Every parse error carries the offending line and column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scenarios import TwistScenario
from .surface import Curve, Involution, Surface, SurfaceError

__all__ = ["FileFormatError", "ParsedFile", "parse_text", "load"]

_SECTIONS = ("faces", "curves", "involutions", "scenario")
_SCENARIO_KEYS = ("description", "s", "involution", "q", "n", "twist")


class FileFormatError(ValueError):
    """Malformed scenario file; the message cites line and column."""


def _fail(source, line_no, col, msg):
    raise FileFormatError(f"{source}: line {line_no}, column {col}: {msg}")


@dataclass
class ParsedFile:
    """Result of parsing a scenario file."""

    surface: Surface
    curves: dict = field(default_factory=dict)
    involutions: dict = field(default_factory=dict)
    settings: dict = field(default_factory=dict)
    source: str = "<string>"

    def scenario(self) -> TwistScenario:
        """Assemble the TwistScenario selected by the [scenario] keys."""
        def pick(key, table, what):
            name = self.settings.get(key)
            if name is None:
                return None
            if name not in table:
                line_no, col = self.settings[key + ".pos"]
                _fail(self.source, line_no, col,
                      f"{what} {name!r} is not defined")
            return table[name]

        s = pick("s", self.curves, "curve")
        if s is None:
            raise FileFormatError(
                f"{self.source}: the [scenario] section must name the "
                "twist curve with 's = NAME'")
        return TwistScenario(
            self.surface,
            self.settings.get("description", self.source),
            s,
            involution=pick("involution", self.involutions, "involution"),
            q_curve=pick("q", self.curves, "curve"),
            n_curve=pick("n", self.curves, "curve"),
            twist_power=self.settings.get("twist", 1),
            curves=dict(self.curves),
        )


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def _split_named(source, line_no, line):
    """Break 'NAME = rest' and report the column of what is missing."""
    if "=" not in line:
        _fail(source, line_no, len(line.rstrip()) + 1,
              "expected 'NAME = ...'")
    name, rest = line.split("=", 1)
    if not name.strip():
        _fail(source, line_no, 1, "missing name before '='")
    col = line.index(name.strip()) + 1
    if name.strip() != name.strip().split()[0] or len(name.split()) > 1:
        _fail(source, line_no, col, "names cannot contain spaces")
    return name.strip(), rest, line.index("=") + 2


def _parse_cycles(source, line_no, rest, offset):
    cycles, current, start = [], None, 0
    for i, ch in enumerate(rest):
        col = offset + i + 1
        if ch == "(":
            if current is not None:
                _fail(source, line_no, col, "nested '(' in cycle list")
            current, start = [], col
        elif ch == ")":
            if current is None:
                _fail(source, line_no, col, "')' without matching '('")
            if current and current[-1] == "":
                current.pop()
            if not current:
                _fail(source, line_no, col, "empty cycle")
            cycles.append(current)
            current = None
        elif ch.isspace():
            if current and current[-1] != "":
                current.append("")
        else:
            if current is None:
                _fail(source, line_no, col,
                      "cycle entries must be parenthesized")
            if not current or current[-1] == "":
                if current and current[-1] == "":
                    current.pop()
                current.append(ch)
            else:
                current[-1] += ch
    if current is not None:
        _fail(source, line_no, offset + len(rest) + 1, "unclosed '('")
    if not cycles:
        _fail(source, line_no, offset + 1, "expected at least one cycle")
    return cycles


def parse_text(text: str, source: str = "<string>") -> ParsedFile:
    """Parse scenario-file text into surface, curves and settings."""
    section = None
    face_words = []   # (line_no, [symbols])
    curve_defs = []   # (line_no, col, name, [symbols])
    invol_defs = []   # (line_no, col, name, cycles)
    settings = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col0 = line.index(stripped) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                _fail(source, line_no, col0 + len(stripped) - 1,
                      "unterminated section header")
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                _fail(source, line_no, col0 + 1,
                      f"unknown section {name!r}; expected one of "
                      + ", ".join(_SECTIONS))
            section = name
            continue
        if section is None:
            _fail(source, line_no, col0,
                  "content before the first section header")

        if section == "faces":
            face_words.append((line_no, stripped.split()))
        elif section == "curves":
            name, rest, col = _split_named(source, line_no, line)
            syms = rest.split()
            if not syms:
                _fail(source, line_no, col, f"curve {name!r} has no edges")
            curve_defs.append((line_no, col, name, syms))
        elif section == "involutions":
            name, rest, col = _split_named(source, line_no, line)
            cycles = _parse_cycles(source, line_no, rest, col - 1)
            invol_defs.append((line_no, col, name, cycles))
        else:
            name, rest, col = _split_named(source, line_no, line)
            if name not in _SCENARIO_KEYS:
                _fail(source, line_no, line.index(name) + 1,
                      f"unknown scenario key {name!r}; expected one of "
                      + ", ".join(_SCENARIO_KEYS))
            value = rest.strip()
            if not value:
                _fail(source, line_no, col, f"key {name!r} has no value")
            if name == "twist":
                try:
                    settings[name] = int(value)
                except ValueError:
                    _fail(source, line_no, line.index(value) + 1,
                          f"twist power must be an integer, got {value!r}")
            else:
                settings[name] = value
                settings[name + ".pos"] = (line_no, line.index(value) + 1)

    if not face_words:
        raise FileFormatError(f"{source}: no [faces] section; a surface "
                              "needs at least one face")
    try:
        surface = Surface.parse([w for _, w in face_words])
    except SurfaceError as exc:
        _fail(source, face_words[0][0], 1, f"invalid surface: {exc}")

    curves = {}
    for line_no, col, name, syms in curve_defs:
        if name in curves:
            _fail(source, line_no, col - len(name) - 1,
                  f"duplicate curve name {name!r}")
        try:
            curves[name] = Curve.from_symbols(surface, syms, name)
        except SurfaceError as exc:
            _fail(source, line_no, col, f"invalid curve {name!r}: {exc}")

    involutions = {}
    for line_no, col, name, cycles in invol_defs:
        if name in involutions:
            _fail(source, line_no, col - len(name) - 1,
                  f"duplicate involution name {name!r}")
        try:
            involutions[name] = Involution.from_cycles(surface, cycles,
                                                       name)
        except SurfaceError as exc:
            _fail(source, line_no, col, f"invalid involution {name!r}: "
                  f"{exc}")

    return ParsedFile(surface, curves, involutions, settings, source)


def load(path) -> ParsedFile:
    """Parse a scenario file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read(), source=str(path))
