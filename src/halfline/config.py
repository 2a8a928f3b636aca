"""Line-oriented problem/run configuration files.

Format: UTF-8 text, one `key = value` pair per line, `#` starts a comment,
blank lines are ignored.  Keys:

    order = <int>                     spatial derivative order n
    a = <re>,<im>                     dispersion coefficient
    bc = <c0>,<c1>,...,<c_{n-1}>      one line per boundary form; entry j
                                      multiplies f^(j)(0)
    label = <text>
    allow_complex = <bool>            permit complex bc entries
    datum.kernel = <c0>,...           boundary Taylor coefficients of the datum;
                                      default the problem's maximal jet,
                                      ``0`` for a bump-only datum
    datum.support = <L>
    datum.seed = <int or none>        ``verify`` reads no datum.* key;
                                      ``spectral-check`` does
    quad.abs_tol = <float>            where ray tails and tail scans stop
    solve.xs, solve.ts                comma list or <start>:<step>:<stop>

All parse errors raise :class:`~halfline.errors.ConfigError` messages that
start with the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .problems import HalfLineProblem, validate
from .quadrature import QuadratureParams

__all__ = ["RunConfig", "parse_config", "load_config", "parse_grid"]

_QUAD_KEYS = {"quad.abs_tol": ("abs_tol", float)}


@dataclass
class RunConfig:
    """Parsed configuration; build_* methods construct library objects."""

    order: int | None = None
    a: complex | None = None
    bc_rows: list = field(default_factory=list)
    label: str = ""
    allow_complex: bool = False
    datum_kernel: tuple = ()
    datum_support: float = 1.0
    datum_seed: int | None = 0
    quad: dict = field(default_factory=dict)
    xs: np.ndarray | None = None
    ts: np.ndarray | None = None

    def build_problem(self) -> HalfLineProblem:
        if self.order is None:
            raise ConfigError("missing required key 'order'")
        if self.a is None:
            raise ConfigError("missing required key 'a'")
        if not self.bc_rows:
            raise ConfigError("missing boundary forms (no 'bc' lines)")
        B = np.array(self.bc_rows, dtype=complex)
        return validate(HalfLineProblem(
            self.order, self.a, B, label=self.label or "config-problem",
            allow_complex=self.allow_complex))

    def build_params(self) -> QuadratureParams:
        return QuadratureParams(**self.quad)

    def build_datum(self, problem=None):
        from .datum import make_datum
        if problem is None:
            problem = self.build_problem()
        kernel = self.datum_kernel or problem.datum_kernel
        return make_datum(problem, kernel, support=self.datum_support,
                          seed=self.datum_seed)


def _floats(text: str, key: str, lineno: int | None) -> list[float]:
    """Comma list of numbers; errors name ``key`` and the line, if any."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            out.append(float(piece))
        except ValueError:
            where = f"line {lineno}: " if lineno is not None else ""
            raise ConfigError(f"{where}bad number {piece!r} in {key}") from None
    return out


def _complexes(text: str, lineno: int, key: str) -> list[complex]:
    out = []
    for piece in text.split(","):
        piece = piece.strip().replace(" ", "")
        try:
            out.append(complex(piece))
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad coefficient {piece!r} in {key}") from None
    return out


def parse_grid(text: str, *, key: str = "grid",
               lineno: int | None = None) -> np.ndarray:
    """Comma list or start:step:stop range (stop inclusive) of finite numbers."""
    where = f"line {lineno}: " if lineno is not None else ""
    text = text.strip()
    pieces = text.split(":")
    if len(pieces) not in (1, 3):
        raise ConfigError(
            f"{where}{key} range must be start:step:stop, got {text!r}")
    nums = [_floats(piece, key, lineno) for piece in pieces]
    if not np.isfinite(sum(nums, [])).all():
        raise ConfigError(f"{where}{key} entries must be finite, got {text!r}")
    if len(nums) == 1:
        return np.array(nums[0])
    start, step, stop = (piece[0] for piece in nums)
    if step <= 0.0:
        raise ConfigError(f"{where}{key} step must be positive")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    if count < 1:
        raise ConfigError(f"{where}{key} range {text!r} is empty")
    return start + step * np.arange(count)


def _bool(text: str, lineno: int, key: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"line {lineno}: {key} must be a boolean, got {text!r}")


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; see the module docstring for the format."""
    cfg = RunConfig()
    seen: dict[str, int] = {}
    bc_lines: list[tuple[int, list[complex]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key != "bc":
            if key in seen:
                raise ConfigError(
                    f"line {lineno}: duplicate key {key!r} (first on line {seen[key]})")
            seen[key] = lineno

        if key == "order":
            try:
                cfg.order = int(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: order must be an integer") from None
            if cfg.order < 2:
                raise ConfigError(f"line {lineno}: order must be at least 2")
        elif key == "a":
            parts = _floats(val, "a", lineno)
            if len(parts) != 2:
                raise ConfigError(
                    f"line {lineno}: a takes exactly two values re,im")
            cfg.a = complex(parts[0], parts[1])
        elif key == "bc":
            bc_lines.append((lineno, _complexes(val, lineno, "bc")))
        elif key == "label":
            cfg.label = val
        elif key == "allow_complex":
            cfg.allow_complex = _bool(val, lineno, key)
        elif key == "datum.kernel":
            cfg.datum_kernel = tuple(_floats(val, key, lineno))
        elif key == "datum.support":
            cfg.datum_support = _floats(val, key, lineno)[0]
            if cfg.datum_support <= 0.0:
                raise ConfigError(f"line {lineno}: datum.support must be positive")
        elif key == "datum.seed":
            if val.lower() == "none":
                cfg.datum_seed = None
            else:
                try:
                    cfg.datum_seed = int(val)
                except ValueError:
                    raise ConfigError(
                        f"line {lineno}: datum.seed must be an integer or none") from None
        elif key in _QUAD_KEYS:
            name, cast = _QUAD_KEYS[key]
            try:
                cfg.quad[name] = cast(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: bad value for {key}") from None
        elif key == "solve.xs":
            cfg.xs = parse_grid(val, key=key, lineno=lineno)
        elif key == "solve.ts":
            cfg.ts = parse_grid(val, key=key, lineno=lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    for lineno, row in bc_lines:
        if cfg.order is not None and len(row) != cfg.order:
            raise ConfigError(
                f"line {lineno}: bc needs {cfg.order} coefficients, got {len(row)}")
        cfg.bc_rows.append(row)
    return cfg


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
